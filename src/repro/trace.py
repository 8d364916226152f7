"""Structured, simulation-wide tracing.

The paper's central methodological point (§3) is that only *fine-grained*
monitoring — sub-second windows, per-activity timestamps — reveals the
hidden flush/compaction synchronization behind the latency long tail.
This module is the reproduction's equivalent of that instrumentation
layer: a low-overhead :class:`Tracer` that components throughout the
stack (event kernel, thread pools, LSM stores, checkpoint coordinator)
emit structured events into.

Event model (a subset of the Chrome trace-event phases):

* **complete spans** (``ph="X"``): an activity with a start and a
  duration — a flush or compaction execution, a job's queue wait, a
  checkpoint barrier;
* **instants** (``ph="i"``): a point event — a trigger decision, an ack,
  a memtable freeze;
* **counters** (``ph="C"``): a sampled value — a store's L0 file count,
  CPU demand, windowed p99.9 latency.

Events carry a category (``cat``): ``"flush"``/``"compaction"`` spans,
``"checkpoint"`` lifecycle, per-node ``"cpu"`` counters, ``"fault"``
injection instants, and ``"resilience"`` — every overload-protection
action (``slo-trip``/``slo-recover``, ``shed-engage``/``shed-exhausted``/
``shed-disengage``) as instants on the acting component's tid.

Timestamps are simulation seconds.  Export formats:

* **JSONL** — one event object per line, headed by a schema record;
  the stable interchange format (golden-tested);
* **Chrome trace-event JSON** — loadable directly in Perfetto or
  ``chrome://tracing`` (timestamps converted to microseconds, thread
  names mapped via metadata records).

The default tracer everywhere is the :data:`NULL_TRACER` singleton whose
``enabled`` flag is ``False``; hot paths guard on that single attribute,
so an untraced run does no per-event work and produces bit-identical
results to a run of code that predates tracing.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ensure_tracer",
    "read_jsonl",
    "events_in_window",
]

#: Bump when the JSONL record shape changes; readers check it.
TRACE_SCHEMA_VERSION = 1

#: The JSONL header record's format tag.
_FORMAT_TAG = "repro.trace"

_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "tid", "args")

#: One compact, key-sorted encoder for every JSONL line (``json.dumps``
#: with these options would build a fresh encoder per line).
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class TraceEvent:
    """One trace record.

    ``ph`` is the phase: ``"X"`` complete span (``dur`` > 0 relevant),
    ``"i"`` instant, ``"C"`` counter (value(s) in ``args``), ``"M"``
    metadata.  ``ts`` and ``dur`` are simulation seconds; ``tid`` is a
    logical track (a pool, a node, a coordinator).
    """

    __slots__ = _EVENT_KEYS

    def __init__(
        self,
        name: str,
        cat: str,
        ph: str,
        ts: float,
        dur: float = 0.0,
        tid: str = "",
        args: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.tid = tid
        self.args = args or {}

    @property
    def end(self) -> float:
        return self.ts + self.dur

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "dur": self.dur,
            "tid": self.tid,
            "args": self.args,
        }

    @classmethod
    def from_dict(cls, data: dict) -> TraceEvent:
        return cls(
            name=data["name"],
            cat=data["cat"],
            ph=data["ph"],
            ts=data["ts"],
            dur=data.get("dur", 0.0),
            tid=data.get("tid", ""),
            args=dict(data.get("args") or {}),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceEvent {self.ph} {self.cat}/{self.name!r} "
            f"ts={self.ts:.6f} dur={self.dur:.6f}>"
        )


def events_in_window(
    events: Iterable[TraceEvent],
    start: float,
    end: float,
    category: Optional[str] = None,
    eps: float = 1e-9,
) -> List[TraceEvent]:
    """Events with ``start < ts <= end`` (optionally one *category*).

    The half-open-on-the-left convention matches windowed state digests
    (a digest at window boundary *t* summarizes everything up to and
    including *t*), so the race sanitizer can map a divergent digest
    straight to the dispatches that produced it.  *eps* absorbs
    float-accumulated boundary error.
    """
    lo, hi = start - eps, end + eps
    return [
        e
        for e in events
        if lo < e.ts <= hi and (category is None or e.cat == category)
    ]


class Tracer:
    """An append-only event sink shared by every traced component.

    Parameters
    ----------
    categories:
        Restrict recording to these categories (``None`` records all).
        The event-dispatch category ``"kernel"`` is opt-in regardless —
        it records one instant per simulator event and would dominate
        any real trace; pass ``categories={"kernel", ...}`` explicitly
        to get it.
    """

    #: Guarded by hot paths before doing any per-event work.
    enabled = True

    def __init__(self, categories: Optional[Iterable[str]] = None) -> None:
        self.events: List[TraceEvent] = []
        self._categories = None if categories is None else set(categories)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def wants(self, cat: str) -> bool:
        if cat == "kernel":
            return self._categories is not None and "kernel" in self._categories
        return self._categories is None or cat in self._categories

    def complete(
        self, name: str, cat: str, ts: float, dur: float, tid: str = "", **args
    ) -> None:
        """Record a finished span (start *ts*, length *dur* seconds)."""
        if self.wants(cat):
            self.events.append(TraceEvent(name, cat, "X", ts, dur, tid, args))

    def instant(self, name: str, cat: str, ts: float, tid: str = "", **args) -> None:
        if self.wants(cat):
            self.events.append(TraceEvent(name, cat, "i", ts, 0.0, tid, args))

    def counter(
        self,
        name: str,
        cat: str,
        ts: float,
        value: Union[float, int, Dict[str, float]],
        tid: str = "",
    ) -> None:
        if self.wants(cat):
            args = dict(value) if isinstance(value, dict) else {"value": value}
            self.events.append(TraceEvent(name, cat, "C", ts, 0.0, tid, args))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def clear(self) -> None:
        self.events.clear()

    def select(
        self,
        cat: Optional[str] = None,
        ph: Optional[str] = None,
        name: Optional[str] = None,
    ) -> List[TraceEvent]:
        return [
            e
            for e in self.events
            if (cat is None or e.cat == cat)
            and (ph is None or e.ph == ph)
            and (name is None or e.name == name)
        ]

    def extend(self, events: Iterable[TraceEvent]) -> None:
        self.events.extend(events)

    def to_dicts(self) -> List[dict]:
        return [event.to_dict() for event in self.events]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def iter_jsonl(self) -> Iterator[str]:
        """Yield the JSONL lines: a schema header, then one event each."""
        header = {
            "name": "trace",
            "cat": "meta",
            "ph": "M",
            "ts": 0.0,
            "dur": 0.0,
            "tid": "",
            "args": {"format": _FORMAT_TAG, "schema": TRACE_SCHEMA_VERSION},
        }
        encode = _JSONL_ENCODER.encode
        yield encode(header)
        for event in self.events:
            yield encode(event.to_dict())

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.iter_jsonl():
                handle.write(line)
                handle.write("\n")

    def chrome_trace(self) -> dict:
        """The Chrome trace-event form (Perfetto / chrome://tracing).

        Simulation seconds become microseconds; string track ids become
        integer ``tid`` values with ``thread_name`` metadata so the
        viewer shows the logical track names.
        """
        tids: Dict[str, int] = {}
        records: List[dict] = []
        for event in self.events:
            tid = tids.setdefault(event.tid or "main", len(tids) + 1)
            record = {
                "name": event.name,
                "cat": event.cat,
                "ph": event.ph,
                "ts": event.ts * 1e6,
                "pid": 1,
                "tid": tid,
            }
            if event.ph == "X":
                record["dur"] = event.dur * 1e6
            if event.ph == "i":
                record["s"] = "t"  # instant scope: thread
            if event.args:
                record["args"] = event.args
            records.append(record)
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": "repro-sim"},
            }
        ]
        for track, tid in sorted(tids.items(), key=lambda item: item[1]):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return {"traceEvents": meta + records, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer events={len(self.events)}>"


class NullTracer(Tracer):
    """The zero-cost default: records nothing, wants nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(categories=())

    def wants(self, cat: str) -> bool:
        return False

    def complete(self, name, cat, ts, dur, tid="", **args) -> None:
        pass

    def instant(self, name, cat, ts, tid="", **args) -> None:
        pass

    def counter(self, name, cat, ts, value, tid="") -> None:
        pass


#: Shared no-op instance; components default to this.
NULL_TRACER = NullTracer()


def ensure_tracer(tracer: Optional[Tracer]) -> Tracer:
    """``None``-safe coercion used by constructors taking a tracer."""
    return NULL_TRACER if tracer is None else tracer


def read_jsonl(path_or_lines) -> List[TraceEvent]:
    """Load events from a JSONL trace (path or iterable of lines).

    The schema header is validated and dropped; metadata records are
    preserved as events so traces round-trip.
    """
    if isinstance(path_or_lines, (str, bytes)) or hasattr(path_or_lines, "__fspath__"):
        with open(path_or_lines, encoding="utf-8") as handle:
            lines: Sequence[str] = handle.readlines()
    else:
        lines = list(path_or_lines)
    events: List[TraceEvent] = []
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        if index == 0 and data.get("ph") == "M" and data.get("name") == "trace":
            schema = data.get("args", {}).get("schema")
            if schema != TRACE_SCHEMA_VERSION:
                raise ValueError(
                    f"unsupported trace schema {schema!r}; "
                    f"this reader expects {TRACE_SCHEMA_VERSION}"
                )
            continue
        events.append(TraceEvent.from_dict(data))
    return events
