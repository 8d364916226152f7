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

from dataclasses import replace
from typing import Optional, Union

from ..apps import APPS
from ..apps.tenancy import tenant_initial_l0, tenantize
from ..config import CheckpointConfig, ClusterConfig, CostModel
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


def _app_stages(spec: ScenarioSpec):
    """The app row's stage table, windowed and tenantized for *spec*."""
    app = APPS[spec.app]
    stages = app.stages
    if app.window_stage is not None:
        keys = int(spec.workload.steady_rate() * spec.window_s)
        stages = tuple(
            replace(stage, distinct_keys=keys)
            if stage.name == app.window_stage
            else stage
            for stage in stages
        )
    return app, tenantize(stages, spec.tenants)


def build_scenario_job(
    spec: Union[ScenarioSpec, str, dict],
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    tie_break: str = "fifo",
    scale: int = 1,
    cost: Optional[CostModel] = None,
) -> StreamJob:
    """Assemble the :class:`StreamJob` a scenario describes.

    The deployment comes from the scenario's :class:`~repro.apps.App`
    row.  ``scale = G`` builds the 1/G cluster slice a sharded worker
    runs: nodes (or, on a single node, cores), stage parallelism, key
    spaces and the source rate all shrink by G, so per-node and
    per-instance load match the full deployment exactly.  ``cost``
    overrides the app's calibrated :class:`CostModel`.
    """
    spec = resolve_scenario(spec)
    app, stages = _app_stages(spec)
    whole, what = app.shard_unit()
    if scale < 1:
        raise ConfigurationError(f"scale must be >= 1, got {scale}")
    if whole % scale != 0:
        raise ConfigurationError(
            f"{spec.app} job: {whole} {what} not divisible into {scale} shards"
        )
    initial_l0 = spec.initial_l0
    if isinstance(initial_l0, str):
        try:
            initial_l0 = app.initial_l0[initial_l0]
        except KeyError:
            raise ConfigurationError(
                f"unknown initial_l0 preset {initial_l0!r} for the {spec.app} "
                f"app; available: {sorted(app.initial_l0)}"
            ) from None
    num_nodes, cores_per_node = app.num_nodes, app.cores_per_node
    if num_nodes > 1:
        num_nodes //= scale
    else:
        cores_per_node //= scale
    return StreamJob(
        stages=tuple(stage.scaled(scale) for stage in stages),
        source=spec.workload.make_source(scale),
        cluster=ClusterConfig(
            num_nodes=num_nodes,
            cores_per_node=cores_per_node,
            storage=profile_by_name(spec.storage),
        ),
        cost=cost or app.cost,
        checkpoint=CheckpointConfig(
            interval_s=spec.interval_s, first_at_s=spec.interval_s
        ),
        mitigation=spec.mitigation,
        tracer=tracer,
        initial_l0=tenant_initial_l0(initial_l0, spec.tenants),
        seed=seed,
        tie_break=tie_break,
        skew=spec.workload.skew,
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
    spec = resolve_scenario(spec)
    if spec.cluster is not None:
        raise ConfigurationError(
            f"scenario {spec.name or '<ad hoc>'} uses the elastic cluster "
            "layer and cannot be sharded"
        )
    app, stages = _app_stages(spec)
    return (*app.shard_unit(), stages)
