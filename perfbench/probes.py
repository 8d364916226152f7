"""One probe per layer: small fixed-size timings of public calls.

The probes are the same code whatever workload the traced pass runs, so
a per-layer number means the same thing in every result file.  Each
probe times calls into a layer from outside (``repro.api`` first, the
layer's public classes where the facade has none), reports medians of a
few repetitions where one call is short, and returns ``{metric: value}``.
README.md maps each metric to the end-to-end metric and workload it
should move.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict

from . import OUT, SRC
from .recorder import NULL_RECORDER
from .stats import median
from .workloads import fig12_sweep, lsm_dataplane

#: Simulated seconds of the shortened runs (scenario rows, tracer pairs).
SHORT_RUN = dict(duration_s=60.0, warmup_s=20.0)


def timed(call: Callable[[], object], reps: int = 1) -> float:
    """Median wall seconds of *reps* calls."""
    walls = []
    for _ in range(reps):
        start = perf_counter()
        call()
        walls.append(perf_counter() - start)
    return median(walls)


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------

def probe_sim(seed: int) -> Dict[str, float]:
    from repro.sim import (
        FluidFlow, JobPhase, ProcessorSharingResource, ResourceTask,
        SimJob, SimThreadPool, Simulator,
    )

    out = {}
    events = 100_000

    def dispatch(cancel_half: bool) -> float:
        sim = Simulator(seed=seed)
        left = [events]

        def noop():
            pass

        def tick():
            left[0] -= 1
            if left[0] > 0:
                sim.schedule(sim.now + 0.001, tick)
                if cancel_half:
                    sim.schedule(sim.now + 0.002, noop).cancel()

        sim.schedule(0.0, tick)
        scheduled = events * (2 if cancel_half else 1)
        return scheduled / timed(sim.run) / 1e3

    out["sim.kernel.dispatch_kev_per_s"] = dispatch(False)
    out["sim.kernel.cancel_kev_per_s"] = dispatch(True)

    def realloc_us(flows: int, cycles: int = 1500) -> float:
        sim = Simulator(seed=seed)
        cpu = ProcessorSharingResource(sim, "cpu", 16.0)
        members = [FluidFlow(sim, f"f{i}", 1e-4, 4.0) for i in range(flows)]
        for flow in members:
            cpu.add_flow(flow)
        step = [0]

        def cycle():
            i = step[0]
            step[0] += 1
            members[i % flows].set_arrival_rate(2000.0 + 1500.0 * (i % 5))
            if i < cycles:
                sim.schedule(sim.now + 0.01, cycle)

        sim.schedule(0.0, cycle)
        return timed(lambda: sim.run(until=0.01 * (cycles + 2))) / cycles * 1e6

    for flows in (4, 8, 64):
        out[f"sim.resource.realloc_us_f{flows}"] = realloc_us(flows)

    def churn_us(completions: int = 4000) -> float:
        sim = Simulator(seed=seed)
        cpu = ProcessorSharingResource(sim, "cpu", 16.0)
        left = [completions]

        def resubmit(_task):
            left[0] -= 1
            if left[0] > 0:
                cpu.submit(ResourceTask("t", "flush", 0.01 + 1e-4 * (left[0] % 7),
                                        on_complete=resubmit))

        for i in range(64):
            cpu.submit(ResourceTask(f"t{i}", "flush", 0.01 + 1e-4 * i,
                                    on_complete=resubmit))
        return timed(sim.run) / completions * 1e6

    out["sim.resource.task_churn_us"] = churn_us()

    def pool_us(jobs: int = 4000) -> float:
        sim = Simulator(seed=seed)
        cpu = ProcessorSharingResource(sim, "cpu", 16.0)
        pool = SimThreadPool(sim, "flush", 16)
        left = [jobs]

        def resubmit(_job):
            left[0] -= 1
            if left[0] > 0:
                pool.submit(SimJob("j", "flush", [JobPhase(cpu, 0.01)],
                                   on_complete=resubmit))

        for _ in range(32):
            pool.submit(SimJob("j", "flush", [JobPhase(cpu, 0.01)],
                               on_complete=resubmit))
        return timed(sim.run) / jobs * 1e6

    out["sim.threadpool.submit_complete_us"] = pool_us()
    return out


# ----------------------------------------------------------------------
# lsm
# ----------------------------------------------------------------------

def probe_lsm(seed: int) -> Dict[str, float]:
    """One full ``lsm_dataplane`` unit, reduced to its layer metrics."""
    inputs = lsm_dataplane.build(seed, small=False)
    verdict = lsm_dataplane.verify(
        inputs, lsm_dataplane.unit(inputs, NULL_RECORDER)
    )
    return lsm_dataplane.metrics(verdict.samples, verdict.exact)


def probe_lsm_account(seed: int) -> Dict[str, float]:
    """The engine's path: sampled ``account()`` volume, checkpoint
    flush, compaction of the accounted bytes."""
    from repro import api

    store = api.LSMStore(api.LSMOptions(), name="accounted")
    cycles = 4000

    def run():
        for cycle in range(cycles):
            for _ in range(4):
                store.account(5000, 1 << 20)
            now = float(cycle)
            job = store.begin_flush(reason="checkpoint", now=now)
            store.finish_flush(job, now=now)
            while True:
                job = store.pick_compaction(now=now)
                if job is None:
                    break
                store.finish_compaction(job, now=now)

    return {"lsm.account_flush_us": timed(run) / cycles * 1e6}


# ----------------------------------------------------------------------
# stream / scenarios / experiments / metrics / serialize
# ----------------------------------------------------------------------

def probe_run_path(seed: int, scratch) -> Dict[str, float]:
    from repro import api
    from repro.experiments.parallel import cache_store, spec_cache_key
    from repro.metrics.percentiles import tail_summary

    out = {}
    settings = api.ExperimentSettings(seed=seed)
    name = "baseline_traffic"
    out["scenarios.build_ms"] = timed(
        lambda: api.build_scenario_job(name, seed=seed), reps=5) * 1e3
    job = api.build_scenario_job(name, seed=seed)
    start = perf_counter()
    result = job.run(settings.duration_s)
    out["stream.run_s"] = perf_counter() - start

    def summarize():
        return api.summarize_run(result, settings, kind="scenario", scenario=name)

    out["experiments.summarize_ms"] = timed(summarize, reps=3) * 1e3
    summary = summarize()
    _, latency, weights = result.end_to_end_latency(
        settings.warmup_s, settings.duration_s)
    out["metrics.tail_summary_ms"] = timed(
        lambda: tail_summary(latency, weights), reps=5) * 1e3
    out["serialize.summary_roundtrip_ms"] = timed(
        lambda: api.RunSummary.from_dict(summary.to_dict()), reps=5) * 1e3
    out["model.baseline.p999_ms"] = summary.tails["p999"] * 1e3

    short = api.ExperimentSettings(seed=seed, **SHORT_RUN)
    for scenario in api.scenario_names():
        out[f"scenario.{scenario}.run_s"] = timed(
            lambda: api.run_scenario(scenario, settings=short))

    # Result cache: key, store, and a fully warm 6-point sweep.
    specs = fig12_sweep.build(seed, small=False)["specs"]
    out["experiments.cache.key_us"] = timed(
        lambda: [spec_cache_key(spec) for spec in specs], reps=5) / len(specs) * 1e6
    cache = scratch / "cache"
    out["experiments.cache.store_ms"] = timed(
        lambda: cache_store(specs[0], summary, cache), reps=5) * 1e3
    for spec in specs[1:]:
        cache_store(spec, summary, cache)
    out["experiments.cache.warm_sweep_ms"] = timed(
        lambda: api.run_grid(specs, cache=True, cache_directory=cache), reps=3) * 1e3

    # The spawn pool and the sharded path; on few cores these measure
    # the scheduler as much as the code, hence never gated.
    start = perf_counter()
    pooled = api.run_grid(specs, jobs=2, cache=False)
    out["experiments.pool.jobs2_sweep_s"] = perf_counter() - start
    fig12 = fig12_sweep.verify({"small": False}, {"summaries": pooled}).exact
    out.update(fig12)
    out["model.headline.p999_ratio"] = (
        fig12["model.fig12.p999_ms.d1"] / out["model.baseline.p999_ms"])
    out["experiments.shard.shards2_run_s"] = timed(
        lambda: api.execute_spec_sharded(specs[2], 2, jobs=None))
    return out


# ----------------------------------------------------------------------
# faults / resilience / cluster / core
# ----------------------------------------------------------------------

def probe_subsystems(seed: int) -> Dict[str, float]:
    from repro import api

    def install_ms(install: Callable[[object], object]) -> float:
        walls = []
        for _ in range(3):
            job = api.build_scenario_job("baseline_traffic", seed=seed)
            walls.append(timed(lambda: install(job)))
        return median(walls) * 1e3

    return {
        "faults.soak_seed_s": timed(lambda: api.run_soak(
            kind="baseline_traffic", seeds=(seed,), cluster=True,
            random_faults=True, cache=False)),
        "faults.inject_ms": install_ms(
            lambda job: api.inject_faults(job, api.preset_plan("chaos"))),
        "cluster.install_ms": install_ms(
            lambda job: api.install_cluster(job, api.ClusterSpec())),
        "resilience.install_ms": install_ms(
            lambda job: api.install_resilience(job, True)),
        "core.tune_smoke_s": timed(lambda: api.tune(
            smoke=True, seed=seed, policies=["reference"], cache=False)),
    }


# ----------------------------------------------------------------------
# trace / analysis / sanitize
# ----------------------------------------------------------------------

def probe_observability(seed: int, scratch) -> Dict[str, float]:
    from repro import api
    from repro.sanitize import diff_against_catalog, extract_wait_graph

    out = {}
    name = "baseline_traffic"
    plain = api.ExperimentSettings(seed=seed, **SHORT_RUN)
    traced = replace(plain, trace=True)
    on, off = [], []
    for _ in range(3):  # interleaved, so drift hits both sides alike
        on.append(timed(lambda: api.run_scenario(name, settings=traced)))
        off.append(timed(lambda: api.run_scenario(name, settings=plain)))
    out["trace.overhead_ratio"] = median(on) / median(off)

    settings = api.ExperimentSettings(seed=seed, trace=True)
    result = api.run_scenario(name, settings=settings)
    out["trace.events"] = len(result.tracer.events)
    path = scratch / "probe.jsonl"
    out["trace.write_jsonl_ms"] = timed(
        lambda: result.export_trace(path, format="jsonl")) * 1e3
    start = perf_counter()
    events = api.read_jsonl(path)
    out["trace.read_jsonl_ms"] = (perf_counter() - start) * 1e3
    out["trace.chrome_export_ms"] = timed(
        lambda: result.export_trace(scratch / "probe.json", format="chrome")) * 1e3
    out["analysis.analyze_result_ms"] = timed(
        lambda: api.analyze_result(result), reps=3) * 1e3
    capacity = result.job.cluster.cores_per_node
    out["analysis.analyze_trace_ms"] = timed(
        lambda: api.analyze_trace(events, capacity=capacity), reps=3) * 1e3
    out["sanitize.waitgraph_ms"] = timed(
        lambda: diff_against_catalog(extract_wait_graph(events)), reps=3) * 1e3
    audit = api.analyze_sync(scenario=name, events=events, static=False)
    out["model.sync.spikes"] = audit.spike_count
    out["model.sync.shadow_edges"] = len(audit.shadow_edges)

    package = SRC / "repro"
    out["sanitize.lint_all_s"] = timed(lambda: api.lint(package))
    out["sanitize.lint_ds2xx_s"] = timed(
        lambda: api.lint_paths([package], rules=["DS2xx"]))
    out["sanitize.race_s"] = timed(
        lambda: api.sanitize(kind="wordcount", duration_s=24.0, seed=seed))
    return out


def run_all(seed: int) -> Dict[str, float]:
    """Every probe, in layer order."""
    scratch = OUT / f"probes-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        out = probe_sim(seed)
        out.update(probe_lsm(seed))
        out.update(probe_lsm_account(seed))
        out.update(probe_run_path(seed, scratch))
        out.update(probe_subsystems(seed))
        out.update(probe_observability(seed, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out
