"""Runtime race sanitizer: perturbed tie-breaking + state digests.

The paper's hidden-synchronization bugs are *scheduling-order* bugs: two
activities nobody ordered on purpose happen to run in a fixed order and
the system silently depends on it.  The simulation has the same hazard
one level down — two events scheduled at the same timestamp fire in
scheduling (FIFO) order, and any state the model computes from that
accidental order is a hidden race.

The sanitizer makes those races observable the same way
:mod:`repro.analysis.millibottleneck` makes flush/compaction coupling
observable — by instrumentation, not debugging:

1. run the model twice, once with the production FIFO tie-break and once
   with the perturbed (LIFO) tie-break among equal-``(time, priority)``
   events (:class:`repro.sim.events.EventQueue`);
2. capture a running *state digest* at every window boundary — LSM
   level shapes, memtable fill, flow queues/offsets, checkpoint
   bookkeeping, per-stream RNG states — scheduled strictly after every
   same-time model event;
3. diff the two digest sequences.  The first divergent window is then
   localized by diffing the two runs' kernel dispatch traces
   (:class:`repro.trace.Tracer` with the ``"kernel"`` category), naming
   the two conflicting events.

A model with no hidden same-timestamp coupling produces identical
digests under both orders; any divergence is a bug report, not noise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..serialize import canonical_json, register
from ..sim.kernel import Simulator
from ..trace import TraceEvent, Tracer, events_in_window

__all__ = [
    "DIGEST_PRIORITY",
    "ProbeTarget",
    "RaceProbe",
    "RaceDivergence",
    "RaceReport",
    "state_digest",
    "digest_hash",
    "run_probe",
    "diff_probes",
    "detect_races",
]

#: Priority of digest-capture events: strictly after every model event
#: at the same timestamp, in both tie-break orders (LIFO only reorders
#: *within* a priority class, and nothing else schedules at this one).
DIGEST_PRIORITY = 1_000_000

#: Decimal places kept for float state in digests.  Same-time updates
#: that commute in exact arithmetic may still differ in the last float
#: bits when reordered ((x+a)+b vs (x+b)+a); six decimals keeps genuine
#: divergences (they grow) while ignoring reordering round-off.
_DIGEST_DECIMALS = 6


def _rounded(value):
    if isinstance(value, float):
        return round(value, _DIGEST_DECIMALS)
    return value


@dataclass
class ProbeTarget:
    """One run the sanitizer can probe.

    ``factory(tie_break)`` callables passed to :func:`detect_races`
    return one of these: the simulator (whose tracer must record the
    ``"kernel"`` category for event-level localization), a zero-argument
    ``digest`` callable returning plain data, and ``run(duration)``.
    """

    sim: Simulator
    digest: Callable[[], dict]
    run: Callable[[float], object]


@dataclass
class RaceProbe:
    """The observable record of one probed run."""

    tie_break: str
    window_s: float
    digests: List[str] = field(default_factory=list)
    snapshots: List[dict] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)
    events_fired: int = 0
    result: object = None


@register
@dataclass
class RaceDivergence:
    """One hidden same-timestamp race: where the two runs split."""

    #: Index and bounds of the first window whose digests differ.
    window_index: int = 0
    window_start: float = 0.0
    window_end: float = 0.0
    baseline_digest: str = ""
    perturbed_digest: str = ""
    #: The two conflicting events: the first dispatch (name, time,
    #: priority) where the runs disagree inside the divergent window.
    baseline_event: Optional[dict] = None
    perturbed_event: Optional[dict] = None
    #: Position of the conflict in the window's dispatch sequence.
    event_index: int = 0
    #: Digest components that differ (component name -> both values).
    state_delta: Dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    def describe(self) -> str:
        base = (self.baseline_event or {}).get("name", "<missing event>")
        pert = (self.perturbed_event or {}).get("name", "<missing event>")
        return (
            f"window {self.window_index} "
            f"[{self.window_start:.3f}s, {self.window_end:.3f}s]: "
            f"dispatch #{self.event_index} ran {base!r} under fifo but "
            f"{pert!r} under the perturbed order"
        )


@register
@dataclass
class RaceReport:
    """Outcome of one race-detection pass (two runs + diff)."""

    label: str = ""
    duration_s: float = 0.0
    window_s: float = 0.0
    windows: int = 0
    baseline_tie_break: str = "fifo"
    perturbed_tie_break: str = "lifo"
    events_fired: Tuple[int, int] = (0, 0)
    #: Number of windows whose digests differ (cascades count once each).
    divergent_windows: int = 0
    #: Localized report for the *first* divergent window; later windows
    #: inherit the corrupted state and are not separately localized.
    divergences: List[RaceDivergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergent_windows == 0

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "duration_s": self.duration_s,
            "window_s": self.window_s,
            "windows": self.windows,
            "baseline_tie_break": self.baseline_tie_break,
            "perturbed_tie_break": self.perturbed_tie_break,
            "events_fired": list(self.events_fired),
            "divergent_windows": self.divergent_windows,
            "divergences": [d.to_dict() for d in self.divergences],
        }

    @classmethod
    def from_dict(cls, data: dict) -> RaceReport:
        data = dict(data)
        data["events_fired"] = tuple(data.get("events_fired", (0, 0)))
        data["divergences"] = [
            RaceDivergence(**d) for d in data.get("divergences", ())
        ]
        return cls(**data)

    def render(self) -> str:
        head = (
            f"race sanitizer: {self.label or 'run'} — {self.windows} "
            f"window(s) of {self.window_s:g}s, "
            f"{self.baseline_tie_break} vs {self.perturbed_tie_break} "
            f"tie-breaking"
        )
        if self.ok:
            return f"{head}\n  no divergence: state digests identical"
        lines = [
            head,
            f"  DIVERGENCE in {self.divergent_windows} window(s); first:",
        ]
        for divergence in self.divergences:
            lines.append(f"  {divergence.describe()}")
            for component, delta in sorted(divergence.state_delta.items()):
                lines.append(
                    f"    {component}: fifo={delta.get('baseline')!r} "
                    f"perturbed={delta.get('perturbed')!r}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------

def digest_hash(payload: dict) -> str:
    """Stable content hash of one digest payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _rng_digest(sim: Simulator) -> Dict[str, str]:
    """Per-stream RNG positions: any reordering of draws shows up here."""
    out: Dict[str, str] = {}
    for name in sim.rng.names():
        state = repr(sim.rng.stream(name).getstate())
        out[name] = hashlib.sha256(state.encode("utf-8")).hexdigest()[:16]
    return out


def _store_digest(store) -> dict:
    levels = store.levels
    return {
        "memtable_entries": _rounded(store.memtable_entries),
        "memtable_bytes": store.memtable_bytes,
        "frozen": len(store._frozen),
        "levels": [
            [len(levels.level(i)), levels.level_bytes(i)]
            for i in range(levels.num_levels)
        ],
        "generation": store.generation,
        "flushes": store.stats.flush_count,
        "compactions": store.stats.compaction_count,
        "compaction_input_bytes": store.stats.compaction_input_bytes,
    }


def _flow_digest(flow) -> dict:
    return {
        "arrival_rate": _rounded(flow.arrival_rate),
        "queue": _rounded(flow.queue),
        "total_arrived": _rounded(flow.total_arrived),
        "total_served": _rounded(flow.total_served),
        "dropped": _rounded(flow.dropped_messages),
    }


def state_digest(job) -> dict:
    """Plain-data digest of a :class:`~repro.stream.engine.StreamJob`.

    Captures everything same-timestamp reordering could corrupt: LSM
    level shapes and memtable fill per store, fluid-flow offsets
    (arrived/served totals are the sim's analogue of consumer offsets),
    checkpoint bookkeeping (watermark: last completed time) and the
    position of every named RNG stream.
    """
    sim = job.sim
    stores = {}
    flows = {}
    for stage in job.stages:
        for instance in stage.instances:
            if instance.store is not None:
                stores[instance.name] = _store_digest(instance.store)
        for node_name in sorted(stage.flows):
            flows[f"{stage.name}@{node_name}"] = _flow_digest(
                stage.flows[node_name]
            )
    coordinator = job.coordinator
    return {
        "now": _rounded(sim.now),
        "stores": stores,
        "flows": flows,
        "checkpoints": {
            "triggered": len(coordinator.records),
            "completed": len(coordinator.completed),
            "aborted": len(coordinator.aborted),
            "watermark": _rounded(coordinator.last_completed_time()),
        },
        "rng": _rng_digest(sim),
    }


# ----------------------------------------------------------------------
# probing and diffing
# ----------------------------------------------------------------------

def _capture(probe: RaceProbe, digest: Callable[[], dict]) -> None:
    snapshot = digest()
    probe.snapshots.append(snapshot)
    probe.digests.append(digest_hash(snapshot))


def run_probe(
    factory: Callable[[str], ProbeTarget],
    duration_s: float,
    window_s: float,
    tie_break: str,
) -> RaceProbe:
    """Execute one instrumented run and collect its windowed digests."""
    target = factory(tie_break)
    probe = RaceProbe(tie_break=tie_break, window_s=window_s)
    windows = max(1, int(round(duration_s / window_s)))
    for index in range(1, windows + 1):
        target.sim.schedule(
            index * window_s,
            _capture,
            probe,
            target.digest,
            priority=DIGEST_PRIORITY,
        )
    probe.result = target.run(duration_s)
    probe.events = events_in_window(
        target.sim.tracer.events, float("-inf"), float("inf"),
        category="kernel",
    )
    probe.events_fired = target.sim.events_fired
    return probe


def _window_events(
    probe: RaceProbe, index: int
) -> List[TraceEvent]:
    """Kernel dispatches inside window *index* (1-based, ``(lo, hi]``)."""
    return events_in_window(
        probe.events, (index - 1) * probe.window_s, index * probe.window_s
    )


def _event_key(event: TraceEvent) -> tuple:
    return (round(event.ts, 9), event.name, event.args.get("priority", 0))


def _event_dict(event: Optional[TraceEvent]) -> Optional[dict]:
    if event is None:
        return None
    return {
        "name": event.name,
        "time": event.ts,
        "priority": event.args.get("priority", 0),
    }


def _snapshot_delta(base: dict, pert: dict, prefix: str = "") -> Dict[str, dict]:
    """Leaf-level diff of two digest payloads (component -> both values)."""
    delta: Dict[str, dict] = {}
    keys = sorted(set(base) | set(pert))
    for key in keys:
        label = f"{prefix}{key}"
        b, p = base.get(key), pert.get(key)
        if isinstance(b, dict) and isinstance(p, dict):
            delta.update(_snapshot_delta(b, p, prefix=f"{label}."))
        elif b != p:
            delta[label] = {"baseline": b, "perturbed": p}
    return delta


def diff_probes(
    baseline: RaceProbe, perturbed: RaceProbe, label: str = "", duration_s: float = 0.0
) -> RaceReport:
    """Compare two probes window by window; localize the first split."""
    windows = min(len(baseline.digests), len(perturbed.digests))
    report = RaceReport(
        label=label,
        duration_s=duration_s,
        window_s=baseline.window_s,
        windows=windows,
        baseline_tie_break=baseline.tie_break,
        perturbed_tie_break=perturbed.tie_break,
        events_fired=(baseline.events_fired, perturbed.events_fired),
    )
    divergent = [
        i
        for i in range(windows)
        if baseline.digests[i] != perturbed.digests[i]
    ]
    report.divergent_windows = len(divergent)
    if not divergent:
        return report
    first = divergent[0]
    base_events = _window_events(baseline, first + 1)
    pert_events = _window_events(perturbed, first + 1)
    position = 0
    conflict: Tuple[Optional[TraceEvent], Optional[TraceEvent]] = (None, None)
    for position in range(max(len(base_events), len(pert_events))):
        b = base_events[position] if position < len(base_events) else None
        p = pert_events[position] if position < len(pert_events) else None
        if (b is None) != (p is None) or (
            b is not None and p is not None and _event_key(b) != _event_key(p)
        ):
            conflict = (b, p)
            break
    report.divergences.append(
        RaceDivergence(
            window_index=first,
            window_start=first * baseline.window_s,
            window_end=(first + 1) * baseline.window_s,
            baseline_digest=baseline.digests[first],
            perturbed_digest=perturbed.digests[first],
            baseline_event=_event_dict(conflict[0]),
            perturbed_event=_event_dict(conflict[1]),
            event_index=position,
            state_delta=_snapshot_delta(
                baseline.snapshots[first], perturbed.snapshots[first]
            ),
        )
    )
    return report


def detect_races(
    factory: Callable[[str], ProbeTarget],
    duration_s: float,
    window_s: float = 2.0,
    label: str = "",
    perturbed_tie_break: str = "lifo",
) -> RaceReport:
    """Run *factory* under both tie-break orders and diff the digests.

    *factory* must build a fresh, identically-configured model for each
    call — it is invoked once per tie-break mode.  For event-level
    localization the model's tracer must record the ``"kernel"``
    category (``Tracer(categories={"kernel"})``); without it the report
    still flags divergent windows, just without the two event names.
    """
    baseline = run_probe(factory, duration_s, window_s, "fifo")
    perturbed = run_probe(factory, duration_s, window_s, perturbed_tie_break)
    return diff_probes(baseline, perturbed, label=label, duration_s=duration_s)


def job_probe_target(job) -> ProbeTarget:
    """Adapt a built :class:`~repro.stream.engine.StreamJob` to a probe."""
    return ProbeTarget(
        sim=job.sim,
        digest=lambda: state_digest(job),
        run=job.run,
    )


def experiment_factory(
    scenario="baseline_wordcount",
    seed: int = 1,
    shards: int = 1,
) -> Callable[[str], ProbeTarget]:
    """A probe factory over one scenario (a library name, a
    :class:`~repro.scenarios.spec.ScenarioSpec` or its dict form).

    ``shards = G`` probes a 1/G cluster slice — the exact topology a
    sharded run (:mod:`repro.experiments.shard`) executes per worker —
    so the race detector covers the sharded mode too.
    """
    from ..scenarios.run import build_scenario_job, resolve_scenario

    spec = resolve_scenario(scenario)

    def factory(tie_break: str) -> ProbeTarget:
        return job_probe_target(
            build_scenario_job(
                spec,
                seed=seed,
                tracer=Tracer(categories={"kernel"}),
                tie_break=tie_break,
                scale=shards,
            )
        )

    return factory
