"""``fig12_sweep`` — the 6-point Figure 12 compaction-delay sweep."""

from __future__ import annotations

from dataclasses import replace

from . import Check, Verdict, run_stepwise, settings_for, sim_digest

NAME = "fig12_sweep"
WHY = (
    "ROADMAP's headline number: six serial 200 s traffic runs, where sim/, "
    "lsm/ in sampled-accounting mode and stream/ do all the work and the "
    "observability layers none"
)
UNIT_SECONDS = 2.8

#: Figure 12's delays; the benchmark keeps its own copy so the figure
#: module can be reorganised without touching it.
DELAYS_S = (0.1, 0.5, 1.0, 3.0, 6.0, 8.0)


def build(seed: int, small: bool) -> dict:
    from repro import api

    settings = settings_for(seed, small)
    base = api.scenario("baseline_traffic")
    specs = [
        api.RunSpec(
            scenario=replace(
                base,
                mitigation=api.MitigationPlan(
                    randomize_compaction_trigger=True, compaction_delay_s=delay
                ),
            ),
            settings=settings,
            label=f"delay={delay:g}s",
        )
        for delay in DELAYS_S
    ]
    return {"specs": specs, "small": small}


def unit(inputs: dict, rec) -> dict:
    from repro import api

    specs = inputs["specs"]
    if not rec.enabled:
        # The path users take: one serial, cache-less grid call.
        return {"summaries": api.run_grid(specs, jobs=None, cache=False)}
    summaries, events = [], 0
    for spec in specs:
        summary, fired = run_stepwise(
            spec.scenario, spec.settings, rec, label=spec.label
        )
        with rec.span("serialize.summary_roundtrip"):
            summary = api.RunSummary.from_dict(summary.to_dict())
        summaries.append(summary)
        events += fired
    return {"summaries": summaries, "events": events}


def verify(inputs: dict, outcome: dict) -> Verdict:
    summaries = outcome["summaries"]
    p999 = {delay: s.tails["p999"] for delay, s in zip(DELAYS_S, summaries)}
    best = min(p999, key=p999.get)
    exact = {
        "model.fig12.best_delay_s": best,
        "model.fig12.p999_ms.d1": p999[1.0] * 1e3,
        "model.fig12.p999_ms.d8": p999[8.0] * 1e3,
    }
    if "events" in outcome:
        exact["sim.events_per_unit"] = outcome["events"]
    checks = [Check("six-summaries", len(summaries) == len(DELAYS_S))]
    if not inputs["small"]:
        # PAPER §4: best around the ~1 s drain time, a delay near the
        # checkpoint interval regresses.
        checks.append(
            Check("best-delay-in-1-3s", 1.0 <= best <= 3.0, f"best={best:g}s")
        )
        checks.append(
            Check(
                "p999-at-8s-worse-than-1s",
                p999[8.0] > p999[1.0],
                f"d8={p999[8.0]:.4f}s d1={p999[1.0]:.4f}s",
            )
        )
    return Verdict(digest=sim_digest(summaries), checks=checks, exact=exact)
