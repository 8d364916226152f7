"""``scenario_pass`` — every library scenario once, then one soak seed."""

from __future__ import annotations

from . import Check, Verdict, digest_of, run_stepwise, settings_for, sim_digest

NAME = "scenario_pass"
WHY = (
    "the library pass plus a soak seed users run: multi_tenant exercises the "
    "vectorized many-flow sim path, elastic_scale and the soak are the only "
    "place cluster/, faults/ and resilience/ run"
)
UNIT_SECONDS = 4.6

#: The soak pins one pipeline so that the seed picks the fault schedule,
#: not the scenario: ``kind="library"`` would draw multi_tenant on one
#: seed and wordcount on the next, a 5x difference in work per unit.
SOAK_SCENARIO = "baseline_traffic"


def build(seed: int, small: bool) -> dict:
    from repro import api

    soak = dict(
        kind=SOAK_SCENARIO,
        seeds=(seed,),
        cluster=True,
        random_faults=True,
        cache=False,
    )
    if small:
        soak.update(duration_s=40.0, warmup_s=10.0)
    return {
        "settings": settings_for(seed, small),
        "names": api.scenario_names(),
        "soak": soak,
        "small": small,
    }


def unit(inputs: dict, rec) -> dict:
    from repro import api

    settings = inputs["settings"]
    summaries, events = [], 0
    for name in inputs["names"]:
        if rec.enabled:
            summary, fired = run_stepwise(
                api.scenario(name), settings, rec, label=name
            )
        else:
            result = api.run_scenario(name, settings=settings)
            summary = api.summarize_run(
                result, settings, kind="scenario", label=name, scenario=name
            )
            fired = result.job.sim.events_fired
        summaries.append(summary)
        events += fired
    with rec.span("resilience.run_soak"):
        soak = api.run_soak(**inputs["soak"])
    return {"summaries": summaries, "soak": soak, "events": events}


def verify(inputs: dict, outcome: dict) -> Verdict:
    summaries, soak = outcome["summaries"], outcome["soak"]
    checks = [
        Check(
            f"checkpoint-completed:{s.scenario}",
            s.activities["checkpoints_completed"] >= 1,
        )
        for s in summaries
    ]
    elastic = next(s for s in summaries if s.scenario == "elastic_scale")
    stuck = [
        m["id"]
        for m in elastic.cluster.get("migrations", [])
        if m.get("status") == "transferring"
    ]
    checks.append(
        Check("elastic-migrations-resolved", not stuck, f"stuck={stuck}")
    )
    owners_ok = not elastic.cluster.get("unowned_partitions") and not any(
        v["invariant"] == "single-owner-per-partition"
        for v in elastic.invariant_violations
    )
    checks.append(Check("elastic-one-owner-per-partition", owners_ok))
    run = soak.runs[0]
    exactly_once = run["invariant_violations"] == 0 and all(
        window["exactly_once"] for window in run["windows"]
    )
    checks.append(
        Check("soak-exactly-once", exactly_once, "; ".join(run["failures"]))
    )
    digest = digest_of(
        {
            "scenarios": sim_digest(summaries),
            "soak_tails": run["tails"],
            "soak_windows": run["windows"],
        }
    )
    exact = {"sim.events_per_unit": outcome["events"]}
    return Verdict(digest=digest, checks=checks, exact=exact)
