"""One workload in one fresh process — the unit every command spawns.

``python -m perfbench child --workload W --seed N --seconds S --trace T``

* ``--trace 0`` — the end-to-end pass: spans off, a fixed count of
  units (derived from ``--seconds``, identical on any two commits),
  every unit verified outside its timed region;
* ``--trace 1`` — the traced pass: one unit performed step by step
  under the span recorder and the layer sampler, then every per-layer
  probe.

The last stdout line is the result object of the PR driver's contract;
``--out`` additionally writes the full document (samples, quartiles,
digest, failed checks, machine context).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import time
from typing import Dict, List

from . import OUT, ROOT, load_manifest, python_cmd, require_repro
from .context import machine_context
from .recorder import LAYERS, NULL_RECORDER, LayerSampler, Recorder, SpeedMeter
from .stats import describe, median, spread
from .workloads import WORKLOADS, Check

#: Fewest units a run measures, however short ``--seconds`` is.
MIN_UNITS = 3
#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Units of metrics that BENCHMARK.json does not list.
EXTRA_UNITS = {"fail_ratio": "ratio"}


def unit_count(workload, seconds: float) -> int:
    """Units measured for ``--seconds``: a pure function of the two, so
    the work is a fixed count and not whatever fits on a given day."""
    return max(MIN_UNITS, round(seconds / workload.UNIT_SECONDS))


def warm_up(workload, seed: int) -> None:
    """One untimed miniature unit: imports every lazily loaded module
    and lets caches fill before anything is timed."""
    inputs = workload.build(seed, small=True)
    workload.verify(inputs, workload.unit(inputs, NULL_RECORDER))


def setup_only(args) -> int:
    """What a run does before its first measured unit, and nothing
    else.  The parent times this process from spawn to exit; the speed
    factor it prints is metered here, on the core doing the work."""
    with SpeedMeter() as meter:
        require_repro()
        workload = WORKLOADS[args.workload]
        workload.build(args.seed, small=args.small)
        warm_up(workload, args.seed)
    print(meter.factor)
    return 0


def sample_setup(args) -> List[float]:
    """Wall at reference speed of SETUP_SAMPLES fresh set-up processes."""
    command = python_cmd() + [
        "setup", "--workload", args.workload, "--seed", str(args.seed)
    ] + (["--small"] if args.small else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, check=True,
                              capture_output=True, text=True)
        wall = time.perf_counter() - start
        samples.append(wall * float(done.stdout.split()[-1]))
    return samples


class Tally:
    """Correctness checks attempted and failed over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, checks: List[Check], unit: int) -> None:
        for check in checks:
            self.attempted += 1
            if not check.ok:
                self.failures.append(
                    f"unit {unit}: {check.name}"
                    + (f" ({check.detail})" if check.detail else "")
                )


def timed_unit(workload, inputs, rec, timer):
    """(wall_s, cpu_s, verdict) of one unit run under *timer* (the
    speed meter or the layer sampler); verification is untimed and
    unsampled, since it calls into the program too."""
    gc.collect()
    with timer:
        cpu = time.process_time()
        wall = time.perf_counter()
        outcome = workload.unit(inputs, rec)
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
    return wall, cpu, workload.verify(inputs, outcome)


def pooled(verdicts) -> Dict[str, list]:
    samples: Dict[str, list] = {}
    for verdict in verdicts:
        for name, values in verdict.samples.items():
            samples.setdefault(name, []).extend(values)
    return samples


def end_to_end_pass(workload, args, inputs, tally: Tally) -> dict:
    setups = sample_setup(args)
    count = args.units or unit_count(workload, args.seconds)
    walls, raw_walls, cpus, verdicts = [], [], [], []
    for index in range(count):
        meter = SpeedMeter()
        wall, cpu, verdict = timed_unit(workload, inputs, NULL_RECORDER, meter)
        walls.append(wall * meter.factor)
        raw_walls.append(wall)
        cpus.append(cpu)
        verdicts.append(verdict)
        tally.add(verdict.checks, index)
        tally.add(
            [Check("same-sim-digest", verdict.digest == verdicts[0].digest,
                   verdict.digest[:12])],
            index,
        )
    values = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": len(tally.failures) / tally.attempted,
        "host.cpu_s": median(cpus),
        "host.noise_iqr_ratio": spread(walls),
    }
    if hasattr(workload, "metrics"):  # operation-level view, if any
        values.update(workload.metrics(pooled(verdicts), verdicts[0].exact))
    return {
        "values": values,
        "detail": {
            "wall_s": {**describe(walls), "raw_median": median(raw_walls)},
            "setup_s": describe(setups),
        },
        "unit_wall_s": walls,
        "unit_wall_raw_s": raw_walls,
        "unit_cpu_s": cpus,
        "setup_samples_s": setups,
        "sim_digest": verdicts[0].digest,
        "exact": verdicts[0].exact,
    }


def _spin_noise(reps: int = 21) -> float:
    """IQR / median of identical pure-Python spins: the box's own
    jitter, measured without any of the program's code."""
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        walls.append(time.perf_counter() - start)
    return spread(walls)


def _recorder_cost(spans: int, ticks: int) -> float:
    """Seconds the recorder and sampler themselves cost a unit with
    *spans* spans and *ticks* sampler ticks (calibrated here, since a
    single traced/untraced pair is dominated by machine noise)."""
    import sys

    rec, reps = Recorder(), 2000
    start = time.perf_counter()
    for _ in range(reps):
        with rec.span("x.y"):
            pass
    per_span = (time.perf_counter() - start) / reps
    sampler = LayerSampler()
    frame = sys._getframe()
    start = time.perf_counter()
    for _ in range(reps):
        sampler._tick(0, frame)
    per_tick = (time.perf_counter() - start) / reps
    return spans * per_span + ticks * per_tick


def traced_pass(workload, args, inputs, tally: Tally) -> dict:
    from . import probes

    rec, sampler = Recorder(), LayerSampler()
    wall, cpu, verdict = timed_unit(workload, inputs, rec, sampler)
    tally.add(verdict.checks, 0)

    span_layers = rec.layer_self_times()
    sampled = dict(sampler.seconds)
    for what, seconds in (("span-self-times", sum(span_layers.values())),
                          ("sampled-layers", sum(sampled.values()))):
        tally.add(
            [Check(f"{what}-cover-unit", abs(seconds - wall) <= 0.10 * wall,
                   f"{seconds:.3f}s of {wall:.3f}s")],
            0,
        )

    values = probes.run_all(args.seed)
    values.update(verdict.exact)
    values.update({
        "host.cpu_s": cpu,
        "host.noise_iqr_ratio": _spin_noise(),
        "host.loadavg_1m": os.getloadavg()[0],
        "host.span_overhead_ratio":
            1.0 + _recorder_cost(len(rec.spans), sampler.ticks) / wall,
    })
    total = sum(sampled.values())
    for layer in LAYERS:
        values[f"share.{layer}"] = 100.0 * sampled.get(layer, 0.0) / total

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.NAME}.json"
    rec.write_chrome(trace_path)
    return {
        "values": values,
        "unit_wall_s": [wall],
        "unit_cpu_s": [cpu],
        "sim_digest": verdict.digest,
        "exact": verdict.exact,
        "span_self_s": rec.self_times(),
        "span_layer_self_s": span_layers,
        "sampled_layer_s": sampled,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def run_child(args) -> int:
    require_repro()
    manifest = load_manifest()
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in manifest[key]}
    units.update(EXTRA_UNITS)

    # The program's own result cache must never serve a measured run.
    os.environ["REPRO_CACHE"] = "off"

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed, small=args.small)
    warm_up(workload, args.seed)

    tally = Tally()
    run_pass = traced_pass if args.trace else end_to_end_pass
    doc = run_pass(workload, args, inputs, tally)
    values = doc.pop("values")
    detail = doc.pop("detail", {})
    metrics = {
        name: {"value": value, "unit": units[name], **detail.get(name, {})}
        for name, value in values.items()
    }
    doc.update({
        "workload": workload.NAME,
        "seed": args.seed,
        "trace": args.trace,
        "small": args.small,
        "seconds": args.seconds,
        "units": len(doc["unit_wall_s"]),
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures,
        "metrics": metrics,
        "context": machine_context(),
    })
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if doc["correct"] else 1
