"""The mitigation plan: everything §4 proposes, composable.

A :class:`MitigationPlan` bundles the paper's three levers so an
experiment can switch any subset on:

1. randomized compaction threshold ``4 + α`` (§4.1),
2. delayed compaction by the queue drain-out time (§4.1),
3. flush/compaction thread-pool sizing (§4.2).

``MitigationPlan.baseline()`` is the unmitigated system;
``MitigationPlan.paper_solution()`` is the configuration evaluated in
§5 (randomized threshold + 1 s delay, default 16/16 pools).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from .thresholds import RandomizedL0Trigger, StaticL0Trigger

__all__ = ["MitigationPlan"]


@dataclass
class MitigationPlan:
    """Which mitigations are active, with their parameters."""

    #: Randomize each instance's L0 trigger as ``base + U{0..spread-1}``.
    randomize_compaction_trigger: bool = False
    #: Width of the randomization window; the paper uses the cycle
    #: length (α ∈ [0, 4)).
    trigger_spread: int = 4
    #: Seconds to postpone compactions after their triggering flush
    #: (0 disables; the paper recommends the drain time, ≈1 s).
    compaction_delay_s: float = 0.0
    #: Flush pool size per node (None keeps the RocksDB default of 16).
    flush_threads: Optional[int] = None
    #: Compaction pool size per node (None keeps the default of 16).
    compaction_threads: Optional[int] = None
    #: Which registered compaction/scheduling policy the stores use
    #: (the mitigation zoo of :mod:`repro.lsm.policies`); ``"reference"``
    #: keeps the paper's RocksDB-leveled behavior.
    compaction_policy: str = "reference"

    def __post_init__(self) -> None:
        if self.trigger_spread < 1:
            raise ConfigurationError("trigger_spread must be >= 1")
        if self.compaction_delay_s < 0:
            raise ConfigurationError("compaction_delay_s must be >= 0")
        if self.flush_threads is not None and self.flush_threads < 1:
            raise ConfigurationError("flush_threads must be >= 1")
        if self.compaction_threads is not None and self.compaction_threads < 1:
            raise ConfigurationError("compaction_threads must be >= 1")
        # Lazy import: core must not depend on lsm at module load.
        from ..lsm.policies import policy_class

        policy_class(self.compaction_policy)

    @classmethod
    def from_dict(cls, data: dict) -> MitigationPlan:
        """The plan of an ``asdict`` form; keys of since-removed fields
        (``auto_delay``) are dropped, so stored specs still load."""
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})

    # ------------------------------------------------------------------
    # canned configurations
    # ------------------------------------------------------------------

    @classmethod
    def baseline(cls) -> MitigationPlan:
        """The unmitigated system: static trigger, no delay, 16/16."""
        return cls()

    @classmethod
    def paper_solution(cls) -> MitigationPlan:
        """§5's evaluated solution: randomized trigger + 1 s delay,
        default thread pools (for a fair comparison, as in the paper)."""
        return cls(randomize_compaction_trigger=True, compaction_delay_s=1.0)

    @classmethod
    def full(cls) -> MitigationPlan:
        """Everything on, including §4.2's recommended pool sizes for a
        16-core node (flush = cores = 16, compaction = knee = 4)."""
        return cls(
            randomize_compaction_trigger=True,
            compaction_delay_s=1.0,
            flush_threads=16,
            compaction_threads=4,
        )

    # ------------------------------------------------------------------
    # factories used by the state backend
    # ------------------------------------------------------------------

    def l0_trigger_policy(self, base: int, rng: random.Random):
        """Per-store trigger policy; random when the plan says so."""
        if self.randomize_compaction_trigger:
            return RandomizedL0Trigger(base, self.trigger_spread, rng)
        return StaticL0Trigger(base)

    def pool_sizes(self, default_flush: int, default_compaction: int):
        """(flush, compaction) pool sizes after applying overrides."""
        flush = self.flush_threads or default_flush
        compaction = self.compaction_threads or default_compaction
        return flush, compaction
