"""Deterministic fault injection with checkpoint recovery.

The subsystem has four parts:

* :mod:`repro.faults.plan` — declarative, serializable
  :class:`FaultPlan`/:class:`FaultSpec` descriptions (plus seeded random
  plans and shrinking for property tests);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which schedules
  a plan onto a built job as ordinary kernel events;
* :mod:`repro.faults.invariants` — :class:`InvariantChecker`, sampling
  exactly-once accounting, watermark monotonicity, checkpoint-barrier
  and LSM-structure invariants while faults fire;
* :mod:`repro.faults.pipeline` — :class:`CheckpointedWordCount`, the
  record-level data plane used by the recovery-equivalence tests.

Most callers only need :func:`inject_faults`::

    job = build_scenario_job("baseline_traffic", seed=7)
    inject_faults(job, "crash")          # preset name, dict, file, ...
    result = job.run(120.0)
    result.fault_events, result.invariant_violations
"""

from __future__ import annotations

from typing import Union

from .capacity import capacity_dip
from .injector import FaultInjector
from .invariants import INVARIANTS, InvariantChecker, InvariantViolation, invariant
from .pipeline import CheckpointedWordCount
from .plan import (
    ALL_FAULT_KINDS,
    ALL_NODES,
    CLUSTER_FAULT_KINDS,
    FAULT_KINDS,
    GLOBAL_KINDS,
    MEMBERSHIP_KINDS,
    PRESET_PLANS,
    FaultPlan,
    FaultSpec,
    load_fault_plan,
    preset_plan,
    shrink_failing,
)

__all__ = [
    "ALL_FAULT_KINDS",
    "ALL_NODES",
    "CLUSTER_FAULT_KINDS",
    "FAULT_KINDS",
    "GLOBAL_KINDS",
    "INVARIANTS",
    "MEMBERSHIP_KINDS",
    "PRESET_PLANS",
    "CheckpointedWordCount",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InvariantChecker",
    "InvariantViolation",
    "capacity_dip",
    "inject_faults",
    "invariant",
    "load_fault_plan",
    "preset_plan",
    "shrink_failing",
]


def inject_faults(job, plan: Union[FaultPlan, dict, str]) -> FaultInjector:
    """Install *plan* (a :class:`FaultPlan`, dict, preset name, JSON
    string, or JSON file path) on a built-but-not-yet-run job, plus an
    :class:`InvariantChecker`.

    Returns the installed :class:`FaultInjector`; the job files it
    under ``job.subsystems["faults"]`` and the checker under
    ``job.subsystems["invariants"]``.
    """
    injector = FaultInjector(job, load_fault_plan(plan)).install()
    InvariantChecker().install(job)
    return injector
