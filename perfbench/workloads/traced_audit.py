"""``traced_audit`` — the observability path: trace, analyse, audit, lint."""

from __future__ import annotations

import os
from dataclasses import replace

from .. import OUT, SRC
from . import Check, Verdict, digest_of, settings_for, sim_digest

NAME = "traced_audit"
WHY = (
    "what repro trace / sync / lint cost: trace.py, analysis/ and sanitize/ "
    "do most of the work here and none in the other three; each traced run "
    "is paired with an untraced twin"
)
UNIT_SECONDS = 4.4

SCENARIO = "baseline_traffic"


def build(seed: int, small: bool) -> dict:
    # Full size lints the whole package, as `repro lint` does; the
    # miniature lints one sub-package so a warm-up stays sub-second.
    package = SRC / "repro"
    return {
        "traced": settings_for(seed, small, trace=True),
        "untraced": settings_for(seed, small),
        "lint_path": package / "storage" if small else package,
        "small": small,
    }


def unit(inputs: dict, rec) -> dict:
    from repro import api

    traced, untraced = inputs["traced"], inputs["untraced"]
    out = {}
    with rec.span("scenarios.run_scenario_traced"):
        result = api.run_scenario(SCENARIO, settings=traced)
    with rec.span("experiments.summarize_run"):
        out["summary"] = api.summarize_run(
            result, traced, kind="scenario", scenario=SCENARIO
        )
    with rec.span("analysis.analyze_result"):
        out["from_result"] = api.analyze_result(result)

    OUT.mkdir(exist_ok=True)
    path = out["trace_path"] = OUT / f"audit-{os.getpid()}.jsonl"
    with rec.span("trace.write_jsonl"):
        result.export_trace(path, format="jsonl")
    with rec.span("trace.read_jsonl"):
        events = out["events"] = api.read_jsonl(path)

    with rec.span("analysis.analyze_trace"):
        out["from_trace"] = api.analyze_trace(
            events, capacity=result.job.cluster.cores_per_node
        )
    with rec.span("sanitize.analyze_sync"):
        out["audit"] = api.analyze_sync(
            scenario=SCENARIO,
            duration_s=traced.duration_s,
            seed=traced.seed,
            paths=[inputs["lint_path"]],
            events=events,
        )
    with rec.span("sanitize.lint"):
        out["findings"] = api.lint(inputs["lint_path"])

    with rec.span("scenarios.run_scenario_untraced"):
        twin = api.run_scenario(SCENARIO, settings=untraced)
    out["sim_events"] = result.job.sim.events_fired + twin.job.sim.events_fired
    out["twin"] = api.summarize_run(
        twin, untraced, kind="scenario", scenario=SCENARIO
    )
    return out


def verify(inputs: dict, outcome: dict) -> Verdict:
    from repro import api

    audit, events = outcome["audit"], outcome["events"]
    written = outcome["trace_path"].read_text(encoding="utf-8").splitlines()
    outcome["trace_path"].unlink()
    replay = api.Tracer()
    replay.extend(events)
    spikes_result = len(outcome["from_result"].spikes)
    spikes_trace = len(outcome["from_trace"].spikes)
    checks = [
        Check("no-shadow-edges", not audit.shadow_edges,
              f"{len(audit.shadow_edges)} shadow edge(s)"),
        Check("no-unsuppressed-findings",
              not audit.findings and not outcome["findings"],
              f"DS2xx={len(audit.findings)} all={len(outcome['findings'])}"),
        Check("every-spike-sync-attributed",
              audit.sync_attributed_spikes == audit.spike_count,
              f"{audit.sync_attributed_spikes}/{audit.spike_count}"),
        Check("jsonl-round-trip-lossless",
              list(replay.iter_jsonl()) == written),
        Check("trace-and-result-agree-on-spikes",
              spikes_result == spikes_trace,
              f"result={spikes_result} trace={spikes_trace}"),
    ]
    summary = outcome["summary"]
    # The events are digested by count: asdict() would deep-copy all of
    # them, and the JSONL round trip above already compared every one.
    bare = replace(summary, trace_events=[], trace_schema=0)
    digest = digest_of(
        {
            "traced": sim_digest([bare]),
            "untraced": sim_digest([outcome["twin"]]),
            "trace_events": len(summary.trace_events),
            "spikes": spikes_trace,
        }
    )
    exact = {
        "trace.events": len(summary.trace_events),
        "model.baseline.p999_ms": outcome["twin"].tails["p999"] * 1e3,
        "model.sync.spikes": audit.spike_count,
        "model.sync.shadow_edges": len(audit.shadow_edges),
        "sim.events_per_unit": outcome["sim_events"],
    }
    return Verdict(digest=digest, checks=checks, exact=exact)
