"""Building and running scenarios — the unified entry point.

:func:`run_scenario` is the canonical way to execute anything in this
repo: it accepts a :class:`ScenarioSpec` (or a library name, or a
serialized dict), assembles the job, installs the scenario's cluster
layer, fault plan and resilience config, and runs it.
:func:`build_scenario_job` is the one place harness code turns a run
description into a :class:`StreamJob`: the parallel executor, the
sharded path, the race sanitizer and the soak all come through here.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import ConfigurationError
from ..storage.backend import profile_by_name
from ..stream.engine import StreamJob, StreamJobResult
from ..trace import Tracer
from .library import scenario
from .spec import ScenarioSpec

__all__ = [
    "resolve_scenario",
    "build_scenario_job",
    "run_scenario",
    "scenario_shard_unit",
]


def resolve_scenario(spec: Union[ScenarioSpec, str, dict]) -> ScenarioSpec:
    """Coerce a name / serialized dict / spec into a :class:`ScenarioSpec`."""
    if isinstance(spec, ScenarioSpec):
        return spec
    if isinstance(spec, str):
        return scenario(spec)
    if isinstance(spec, dict):
        return ScenarioSpec.from_dict(spec)
    raise ConfigurationError(
        f"expected a ScenarioSpec, library name, or dict; got {type(spec).__name__}"
    )


def build_scenario_job(
    spec: Union[ScenarioSpec, str, dict],
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    tie_break: str = "fifo",
    scale: int = 1,
) -> StreamJob:
    """Assemble the :class:`StreamJob` a scenario describes.

    ``scale = G`` builds the 1/G cluster slice a sharded worker runs.
    """
    spec = resolve_scenario(spec)
    workload = spec.workload
    common = dict(
        mitigation=spec.mitigation,
        storage=profile_by_name(spec.storage),
        seed=seed,
        tracer=tracer,
        tie_break=tie_break,
        scale=scale,
        source=workload.make_source(scale),
        skew=workload.skew,
        tenants=spec.tenants,
    )
    if spec.app == "traffic":
        from ..apps.traffic_job import build_traffic_job

        return build_traffic_job(
            checkpoint_interval_s=spec.interval_s,
            initial_l0=spec.initial_l0,
            **common,
        )
    if spec.app == "wordcount":
        from ..apps.wordcount_job import build_wordcount_job

        return build_wordcount_job(commit_interval_s=spec.interval_s, **common)
    from ..apps.join_job import build_join_job

    return build_join_job(
        checkpoint_interval_s=spec.interval_s,
        message_rate=workload.steady_rate(),
        window_s=spec.window_s,
        **common,
    )


def run_scenario(
    spec: Union[ScenarioSpec, str, dict],
    settings=None,
    scale: int = 1,
) -> StreamJobResult:
    """The single public entry point: run a scenario, return its result.

    *spec* may be a :class:`ScenarioSpec`, a library name
    (``"diurnal_flash"``), or a serialized dict.  Everything about the
    run other than measurement conventions — including its fault plan
    and resilience config — is on *spec*; vary one with
    ``dataclasses.replace`` (or ``scenario(name, faults=...)``).
    Measurement conventions come from *settings*
    (:class:`~repro.experiments.runner.ExperimentSettings`; the shared
    defaults when omitted).  ``scale = G`` runs the 1/G cluster slice a
    sharded worker executes.
    """
    from ..experiments.runner import DEFAULT_SETTINGS

    spec = resolve_scenario(spec)
    settings = DEFAULT_SETTINGS if settings is None else settings
    if spec.cluster is not None and scale > 1:
        raise ConfigurationError(
            "cluster scenarios cannot be sharded: membership changes and "
            "partition migrations couple the nodes, so a 1/scale slice is "
            "not independent; run with scale=1"
        )
    job = build_scenario_job(
        spec,
        seed=settings.seed,
        tracer=settings.make_tracer(),
        scale=scale,
    )
    if spec.cluster is not None:
        from ..cluster import install_cluster

        install_cluster(job, spec.cluster)
    if spec.faults is not None:
        from ..faults import inject_faults

        inject_faults(job, spec.faults)
    if spec.resilience is not None:
        from ..resilience import install_resilience

        install_resilience(job, spec.resilience)
    return job.run(settings.duration_s)


def scenario_shard_unit(spec: Union[ScenarioSpec, str, dict]):
    """What a shard count must divide for this scenario's deployment.

    Returns ``(whole, what, stages)`` — the node/core count, its name
    for error messages, and the (tenantized) stage tuple whose
    parallelism :func:`~repro.experiments.shard.plan_shards` checks.
    """
    from ..apps.join_job import JOIN_STAGES
    from ..apps.tenancy import tenantize
    from ..apps.traffic_job import TRAFFIC_STAGES
    from ..apps.wordcount_job import WORDCOUNT_STAGES

    spec = resolve_scenario(spec)
    if spec.cluster is not None:
        raise ConfigurationError(
            f"scenario {spec.name or '<ad hoc>'} uses the elastic cluster "
            "layer and cannot be sharded"
        )
    if spec.app == "wordcount":
        whole, what, stages = 16, "cores", WORDCOUNT_STAGES
    elif spec.app == "join":
        whole, what, stages = 4, "node groups", JOIN_STAGES
    else:
        whole, what, stages = 4, "node groups", TRAFFIC_STAGES
    return whole, what, tenantize(stages, spec.tenants)
