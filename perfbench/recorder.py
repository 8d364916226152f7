"""In-memory spans and a layer sampler for the traced pass.

Both live entirely in ``perfbench``: spans are opened by the workload
code around each call into a layer's public function, and the sampler
attributes wall-clock to the ``repro`` package a stack frame belongs
to.  Nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from . import SRC

#: ``repro`` sub-package (or top-level module) -> reported layer.  What
#: is not listed reports under its own name if that is in LAYERS, else
#: under ``other`` together with perfbench's own glue.
_LAYER_OF = {
    "apps": "scenarios",
    "workloads": "scenarios",
    "storage": "stream",
    "config": "stream",
    "serialize": "experiments",
}

#: The layers ``share.<layer>`` metrics exist for.
LAYERS = (
    "sim", "lsm", "stream", "scenarios", "experiments", "metrics",
    "faults", "resilience", "cluster", "core", "trace", "analysis",
    "sanitize", "other",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit")

    def __init__(self, name: str, start: float, parent: Optional[int], unit: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Span recorder; ``Recorder(enabled=False)`` records nothing.

    A span's name is ``<layer>.<call>``.  Spans opened inside another
    span become its children; ``unit`` is the identifier all spans of
    one benchmark unit share.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.unit = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, self.unit))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Span name -> self seconds (duration minus child spans)."""
        child_total = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_total[span.parent] += span.duration
        out: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            out[span.name] += span.duration - child_total[index]
        return dict(out)

    def layer_self_times(self) -> Dict[str, float]:
        """Layer (the span name's prefix) -> self seconds."""
        out: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times().items():
            out[name.split(".", 1)[0]] += seconds
        return dict(out)

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON (Perfetto-loadable), one track per unit."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.unit,
                "args": {"parent": span.parent, "unit": span.unit},
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


#: The recorder of the end-to-end pass: every ``span()`` is a no-op.
NULL_RECORDER = Recorder(enabled=False)


class _IntervalTimer:
    """Context manager calling ``self._tick(signum, frame)`` in the main
    thread every ``interval`` real seconds (SIGALRM / ITIMER_REAL)."""

    interval = 0.002

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._stop()

    def _start(self) -> None:
        pass

    def _stop(self) -> None:
        pass


class LayerSampler(_IntervalTimer):
    """Attribute wall-clock to the ``repro`` layer that is executing.

    Every 2 ms the handler charges the time since its previous tick to
    the innermost frame that belongs to ``repro`` (so numpy or stdlib
    time counts for the layer that called it).  Charging elapsed time,
    not a fixed quantum, keeps the total equal to the sampled wall even
    when a long C call delays a tick.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.ticks = 0
        self._prefix = str(SRC / "repro") + os.sep
        self._cache: Dict[str, Optional[str]] = {}
        self._last = 0.0

    def _layer(self, frame) -> str:
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = self._cache.get(filename, "")
            if layer == "":
                layer = None
                if filename.startswith(self._prefix):
                    head = filename[len(self._prefix):].split(os.sep, 1)[0]
                    head = head[:-3] if head.endswith(".py") else head
                    head = _LAYER_OF.get(head, head)
                    layer = head if head in LAYERS else "other"
                self._cache[filename] = layer
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def _tick(self, signum, frame) -> None:
        now = time.perf_counter()
        self.seconds[self._layer(frame)] += now - self._last
        self._last = now
        self.ticks += 1

    def _start(self) -> None:
        self._last = time.perf_counter()

    def _stop(self) -> None:
        self.seconds["other"] += time.perf_counter() - self._last


class SpeedMeter(_IntervalTimer):
    """How fast this box runs pure Python *while* a unit executes.

    Shared sandboxes flip between CPU speed states (1.3x apart on the
    box this was built on, for seconds at a time), which no amount of
    repetition inside an 18 s run averages out.  Every 50 ms the handler
    times a fixed ~0.45 ms spin; ``factor`` is the mean of
    ``REFERENCE_SPIN_S / spin`` over the unit, i.e. the share of the
    unit's wall a box at reference speed would have needed.  The spin
    lives here, so no change to the program can move it, and costs the
    unit under 1 %.
    """

    interval = 0.05
    SPIN = 40_000
    #: The spin at the faster of the two speed states seen while sizing.
    REFERENCE_SPIN_S = 440e-6

    def __init__(self) -> None:
        self._ratio_sum = 0.0
        self._ticks = 0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        for _ in range(self.SPIN):
            pass
        self._ratio_sum += self.REFERENCE_SPIN_S / (time.perf_counter() - start)
        self._ticks += 1

    @property
    def factor(self) -> float:
        """1.0 at reference speed, below 1 on a slower box or moment;
        1.0 too when the unit was shorter than one interval."""
        return self._ratio_sum / self._ticks if self._ticks else 1.0
