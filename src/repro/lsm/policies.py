"""Pluggable compaction/scheduling policies — the mitigation zoo.

The reference store compacts the way RocksDB's leveled strategy does:
every L0 trigger trip merges *all* idle L0 files (plus their L1
overlap), and deeper levels compact worst-overflow-first.  ShadowSync's
long tail comes precisely from those merges landing in synchronized
bursts, and the related work names scheduling disciplines that spread,
reorder or defer them:

* ``reference`` — the RocksDB-leveled baseline (bit-identical to the
  store's historical behavior).
* ``vlsm_partial`` — vLSM-style partial compaction: only the *oldest*
  ``max_l0_files`` L0 files merge per compaction, leaving the newer
  sub-level in place, so each merge is smaller and the burst flattens.
  At most one L0→L1 compaction runs per store at a time (partial picks
  of disjoint L0 suffixes may still overlap in key range, and their L1
  outputs must not).
* ``greedy_minor`` — Luo & Carey's greedy scheduler: of every runnable
  candidate (the L0 merge and each overflowing level), run the one with
  the smallest input first — minimum-latency merges keep the scheduler
  responsive.
* ``round_robin`` — Luo & Carey's round-robin scheduler: a cursor walks
  the levels so no level starves behind a persistently noisy one.
* ``flush_first`` — I/O-scheduler-style prioritization: compaction
  submission is briefly held while the node's flush pool has work in
  flight, so checkpoint flushes never queue behind L0 merges.
* ``fair_tokens`` — fairness-aware token bucket: each store's compaction
  *byte rate* is capped, so one hot store cannot monopolize the shared
  compaction pool during a synchronized burst.

Every policy is deterministic (no RNG), keeps the LSM correctness
invariants (the differential harness in
``tests/test_lsm_policy_invariants.py`` holds each registered name to
contents-equivalence with the reference compactor, determinism, and
exactly-once under crash-and-restore), and is discoverable through the
registry::

    from repro.lsm.policies import make_policy, policy_names

    policy_names()             # ['fair_tokens', 'flush_first', ...]
    make_policy('vlsm_partial', params={'max_l0_files': 3})
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Type

from ..errors import ConfigurationError
from .levels import CompactionPick, LevelManager

__all__ = [
    "CompactionPolicy",
    "register_policy",
    "policy_names",
    "policy_class",
    "make_policy",
    "DEFAULT_POLICY",
]

#: The policy every store uses unless configured otherwise.
DEFAULT_POLICY = "reference"

_POLICIES: Dict[str, Type["CompactionPolicy"]] = {}


def register_policy(name: str):
    """Class decorator: add a :class:`CompactionPolicy` to the registry."""

    def decorate(cls):
        if name in _POLICIES:
            raise ConfigurationError(f"policy {name!r} already registered")
        cls.name = name
        _POLICIES[name] = cls
        return cls

    return decorate


def policy_names() -> List[str]:
    """All registered policy names, sorted."""
    return sorted(_POLICIES)


def policy_class(name: str) -> Type["CompactionPolicy"]:
    """The class registered under *name*."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown compaction policy {name!r}; "
            f"available: {policy_names()}"
        ) from None


def make_policy(
    name: str, options=None, params: Optional[dict] = None
) -> "CompactionPolicy":
    """Instantiate the policy registered under *name*.

    *params* are keyword arguments of the policy's constructor (e.g.
    ``{'max_l0_files': 3}`` for ``vlsm_partial``); unknown keys raise.
    """
    cls = policy_class(name)
    try:
        return cls(options=options, **(params or {}))
    except TypeError as exc:
        raise ConfigurationError(
            f"bad params for policy {name!r}: {exc}"
        ) from None


class CompactionPolicy(ABC):
    """Decides which compaction a store runs next, and when.

    The *picking* half (:meth:`pick`) chooses and claims inputs from a
    :class:`~repro.lsm.levels.LevelManager`; the *scheduling* half
    (:meth:`submission_hold` / :meth:`on_submitted`) lets the state
    backend defer or pace job submission.  The base class supplies the
    shared machinery — the no-pick memo and the claim step — so
    subclasses implement only :meth:`choose`.
    """

    #: Overridden by :func:`register_policy`.
    name = "abstract"

    def __init__(self, options=None) -> None:
        self.options = options
        #: Lifetime pick count (reset on checkpoint restore).
        self.picks = 0

    # ------------------------------------------------------------------
    # picking
    # ------------------------------------------------------------------

    def pick(
        self,
        levels: LevelManager,
        now: float = 0.0,
        trigger: Optional[int] = None,
    ) -> Optional[CompactionPick]:
        """Choose and claim the next compaction, or ``None``.

        A "nothing due" answer is memoized against the level structure
        version (every policy's choice is a pure function of the level
        structure, the claim set and the trigger in force — stateful
        policies only advance their state on successful picks, which
        bump the version, so the memo stays exact).
        """
        effective = (
            trigger
            if trigger is not None
            else levels.options.effective_l0_trigger()
        )
        if levels.no_pick_memoized(effective):
            return None
        pick = self.choose(levels, effective)
        if pick is None:
            levels.memoize_no_pick(effective)
            return None
        levels.claim(pick)
        self.picks += 1
        return pick

    @abstractmethod
    def choose(
        self, levels: LevelManager, trigger: int
    ) -> Optional[CompactionPick]:
        """Return an unclaimed pick, or ``None`` when nothing is due."""

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def submission_hold(self, now: float, node=None, store=None) -> float:
        """Seconds to defer compaction submission (0 = submit now).

        Called by the state backend before draining a store's due
        compactions; *node* exposes the flush/compaction pools and
        *store* the L0 pressure.  The default never holds.
        """
        return 0.0

    def on_submitted(self, job, now: float = 0.0) -> None:
        """Account a submitted :class:`~repro.lsm.compaction.CompactionJob`."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget transient state (called on checkpoint restore)."""
        self.picks = 0

    def describe(self) -> dict:
        """Plain-data identity (for artifacts and trace labels)."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} picks={self.picks}>"


# ----------------------------------------------------------------------
# the zoo
# ----------------------------------------------------------------------


@register_policy("reference")
class ReferencePolicy(CompactionPolicy):
    """RocksDB's leveled strategy — the store's historical behavior.

    L0 file-count pressure first (merge *all* idle L0 files plus their
    L1 overlap), then the most over-sized deeper level.  The default
    of :attr:`~repro.lsm.options.LSMOptions.compaction_policy`.
    """

    def choose(
        self, levels: LevelManager, trigger: int
    ) -> Optional[CompactionPick]:
        pick = levels.build_l0_pick(trigger)
        if pick is None:
            level = levels.peek_overflow_level()
            if level is not None:
                pick = levels.build_level_pick(level)
        return pick


@register_policy("vlsm_partial")
class VlsmPartialPolicy(CompactionPolicy):
    """vLSM-style sub-levels with overlapping partial compaction.

    Only the oldest ``max_l0_files`` L0 files merge per compaction; the
    newer files stay behind as an upper sub-level whose (overlapping)
    key ranges keep absorbing flushes.  Smaller merges mean shorter CPU
    bursts — the lever vLSM uses to cut the tail.  At most one L0→L1
    compaction is in flight per store (the builders refuse a second
    pick into a level with a merge outstanding, keeping L1 runs
    disjoint); deeper levels compact as in the reference policy.
    """

    def __init__(self, options=None, max_l0_files: Optional[int] = None) -> None:
        super().__init__(options)
        if max_l0_files is not None and max_l0_files < 1:
            raise ConfigurationError("max_l0_files must be >= 1")
        self.max_l0_files = max_l0_files

    def choose(
        self, levels: LevelManager, trigger: int
    ) -> Optional[CompactionPick]:
        if not levels.l0_compaction_in_flight():
            limit = self.max_l0_files if self.max_l0_files is not None else trigger
            pick = levels.build_l0_pick(trigger, max_files=limit)
            if pick is not None:
                return pick
        level = levels.peek_overflow_level()
        if level is not None:
            return levels.build_level_pick(level)
        return None

    def describe(self) -> dict:
        return {"name": self.name, "max_l0_files": self.max_l0_files}


@register_policy("greedy_minor")
class GreedyMinorPolicy(CompactionPolicy):
    """Luo & Carey's greedy scheduler: smallest runnable merge first.

    Candidates are the L0 merge (when due) and one pick per overflowing
    deeper level; the policy runs the candidate with the fewest input
    bytes.  Short merges complete quickly and release their claims,
    keeping the compaction backlog — and the write stalls behind it —
    low-variance.
    """

    def choose(
        self, levels: LevelManager, trigger: int
    ) -> Optional[CompactionPick]:
        candidates: List[CompactionPick] = []
        pick = levels.build_l0_pick(trigger)
        if pick is not None:
            candidates.append(pick)
        for level, ratio in levels.overflow_ratios():
            if ratio > 1.0:
                deeper = levels.build_level_pick(level)
                if deeper is not None:
                    candidates.append(deeper)
        if not candidates:
            return None
        # Deterministic: ties break toward the shallower source level.
        return min(candidates, key=lambda p: (p.input_bytes, p.source_level))


@register_policy("round_robin")
class RoundRobinPolicy(CompactionPolicy):
    """Luo & Carey's round-robin scheduler: levels take turns.

    A cursor walks L0, L1, …; each pick starts scanning at the cursor
    and runs the first level with work, then advances past it.  No
    level starves behind a persistently overflowing neighbor, which
    stabilizes per-level sizes under sustained skew.  The cursor moves
    only on successful picks, so the no-pick memo stays exact.
    """

    def __init__(self, options=None) -> None:
        super().__init__(options)
        self._cursor = 0

    def choose(
        self, levels: LevelManager, trigger: int
    ) -> Optional[CompactionPick]:
        span = levels.num_levels - 1  # L0 .. L(n-2) can be sources
        for step in range(span):
            level = (self._cursor + step) % span
            if level == 0:
                pick = levels.build_l0_pick(trigger)
            elif levels.overflow_ratio(level) > 1.0:
                pick = levels.build_level_pick(level)
            else:
                pick = None
            if pick is not None:
                self._cursor = (level + 1) % span
                return pick
        return None

    def reset(self) -> None:
        super().reset()
        self._cursor = 0

    def describe(self) -> dict:
        return {"name": self.name, "cursor": self._cursor}


@register_policy("flush_first")
class FlushFirstPolicy(CompactionPolicy):
    """Flush-over-L0 I/O prioritization.

    Picks exactly as the reference policy, but holds compaction
    *submission* while the node's flush pool has jobs queued or running
    — checkpoint flushes (which block their instance stop-the-world)
    never contend with freshly triggered L0 merges for CPU and device
    bandwidth.  A per-episode cap bounds the deferral so compactions
    cannot starve under continuous flush pressure.
    """

    def __init__(
        self, options=None, hold_s: float = 0.05, max_hold_s: float = 0.5
    ) -> None:
        super().__init__(options)
        if hold_s <= 0 or max_hold_s < hold_s:
            raise ConfigurationError("need 0 < hold_s <= max_hold_s")
        self.hold_s = hold_s
        self.max_hold_s = max_hold_s
        self._hold_started: Optional[float] = None

    def choose(
        self, levels: LevelManager, trigger: int
    ) -> Optional[CompactionPick]:
        pick = levels.build_l0_pick(trigger)
        if pick is None:
            level = levels.peek_overflow_level()
            if level is not None:
                pick = levels.build_level_pick(level)
        return pick

    def submission_hold(self, now: float, node=None, store=None) -> float:
        flush_pool = getattr(node, "flush_pool", None)
        if flush_pool is None or flush_pool.backlog == 0:
            self._hold_started = None
            return 0.0
        if self._hold_started is None:
            self._hold_started = now
        if now - self._hold_started >= self.max_hold_s:
            # anti-starvation: stop yielding after max_hold_s of deferral
            return 0.0
        return self.hold_s

    def reset(self) -> None:
        super().reset()
        self._hold_started = None

    def describe(self) -> dict:
        return {
            "name": self.name,
            "hold_s": self.hold_s,
            "max_hold_s": self.max_hold_s,
        }


@register_policy("fair_tokens")
class FairTokenPolicy(CompactionPolicy):
    """Fairness-aware token scheduler: per-store compaction byte-rate cap.

    Each store holds a token bucket refilled at ``rate_mb_s`` with a
    ``burst_mb`` ceiling; every submitted compaction spends tokens equal
    to its input megabytes, and submission waits while the bucket is in
    deficit.  During a synchronized burst no single store can flood the
    shared compaction pool — the noisy-neighbor fairness the multi-tenant
    scenario needs.
    """

    def __init__(
        self, options=None, rate_mb_s: float = 64.0, burst_mb: float = 256.0
    ) -> None:
        super().__init__(options)
        if rate_mb_s <= 0 or burst_mb <= 0:
            raise ConfigurationError("rate_mb_s and burst_mb must be > 0")
        self.rate_mb_s = rate_mb_s
        self.burst_mb = burst_mb
        self._tokens_mb = burst_mb
        self._refilled_at = 0.0

    def choose(
        self, levels: LevelManager, trigger: int
    ) -> Optional[CompactionPick]:
        pick = levels.build_l0_pick(trigger)
        if pick is None:
            level = levels.peek_overflow_level()
            if level is not None:
                pick = levels.build_level_pick(level)
        return pick

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._refilled_at)
        self._refilled_at = now
        self._tokens_mb = min(
            self.burst_mb, self._tokens_mb + elapsed * self.rate_mb_s
        )

    def submission_hold(self, now: float, node=None, store=None) -> float:
        self._refill(now)
        if self._tokens_mb > 0.0:
            return 0.0
        return -self._tokens_mb / self.rate_mb_s

    def on_submitted(self, job, now: float = 0.0) -> None:
        self._refill(now)
        self._tokens_mb -= job.input_bytes / 1e6

    def reset(self) -> None:
        super().reset()
        self._tokens_mb = self.burst_mb
        self._refilled_at = 0.0

    def describe(self) -> dict:
        return {
            "name": self.name,
            "rate_mb_s": self.rate_mb_s,
            "burst_mb": self.burst_mb,
        }
