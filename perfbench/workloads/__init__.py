"""The four workloads and what they share.

A workload is a module with::

    NAME, WHY          # as in BENCHMARK.json
    UNIT_SECONDS       # nominal wall of one unit on the reference box;
                       # only used to turn --seconds into a unit count
    build(seed, small) -> inputs        # untimed, deterministic in seed
    unit(inputs, rec) -> outcome        # the timed work
    verify(inputs, outcome) -> Verdict  # untimed correctness checks

``small`` shrinks a unit to a fraction of a second: it is the warm-up
unit of every run and what the smoke test drives.  Checks that only
make sense at full size are skipped on small inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List

from ..recorder import Recorder


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Verdict:
    """What one unit's verification yields."""

    #: sha256 over the unit's simulated / logical results; equal for
    #: every unit of one seed on any commit that keeps behaviour.
    digest: str
    checks: List[Check] = field(default_factory=list)
    #: Per-metric timing samples the unit collected itself (op batches).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Exact, repeatable numbers: event counts, ``model.*`` statistics.
    exact: Dict[str, float] = field(default_factory=dict)


def digest_of(payload) -> str:
    from repro.serialize import canonical_json

    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def sim_digest(summaries) -> str:
    """sha256 of the canonical JSON of ``RunSummary.to_dict()`` for each
    summary, presentation label excluded."""
    payload = []
    for summary in summaries:
        data = summary.to_dict()
        data.pop("label", None)
        payload.append(data)
    return digest_of(payload)


def settings_for(seed: int, small: bool, **extra):
    """Default ``ExperimentSettings`` (200 s / 40 s warm-up), or the
    24 s / 8 s miniature."""
    from repro import api

    if small:
        return api.ExperimentSettings(
            duration_s=24.0, warmup_s=8.0, seed=seed, **extra
        )
    return api.ExperimentSettings(seed=seed, **extra)


def run_stepwise(spec, settings, rec: Recorder, label: str = ""):
    """What ``api.run_scenario`` + ``api.summarize_run`` do, performed
    one public call at a time so each gets its own span.

    Returns ``(summary, events_fired)``.  The digest check holds this to
    the facade's own result.
    """
    from repro import api

    with rec.span("scenarios.build_scenario_job"):
        job = api.build_scenario_job(spec, seed=settings.seed)
    if spec.cluster is not None:
        with rec.span("cluster.install_cluster"):
            api.install_cluster(job, spec.cluster)
    if spec.faults is not None:
        with rec.span("faults.inject_faults"):
            api.inject_faults(job, spec.faults)
    if spec.resilience is not None:
        with rec.span("resilience.install_resilience"):
            api.install_resilience(job, spec.resilience)
    with rec.span("stream.run"):
        result = job.run(settings.duration_s)
    with rec.span("experiments.summarize_run"):
        summary = api.summarize_run(
            result, settings, kind="scenario", label=label, scenario=spec.name
        )
    return summary, job.sim.events_fired


from . import fig12_sweep, lsm_dataplane, scenario_pass, traced_audit  # noqa: E402

#: name -> workload module, in reporting order.
WORKLOADS = {
    module.NAME: module
    for module in (fig12_sweep, scenario_pass, lsm_dataplane, traced_audit)
}
