"""Generator-based coroutine processes on top of the event kernel.

A process is a Python generator that yields *waits*:

* a ``float`` — sleep that many simulated seconds;
* a :class:`Signal` — park until the signal fires, receiving the value
  passed to :meth:`Signal.fire`.

This gives sequential-looking control flow for inherently sequential
actors (e.g. the checkpoint coordinator: trigger, wait for acks, sleep
until the next interval) while everything still runs on one event heap.

>>> sim = Simulator()
>>> log = []
>>> def actor():
...     yield 1.0
...     log.append(("woke", sim.now))
...     yield 0.5
...     log.append(("done", sim.now))
>>> _ = spawn(sim, actor())
>>> sim.run()
>>> log
[('woke', 1.0), ('done', 1.5)]
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List

from ..errors import SimulationError
from .events import NORMAL_PRIORITY
from .kernel import Simulator

__all__ = ["Signal", "Process", "spawn"]


class Signal:
    """A one-to-many wake-up primitive for processes and callbacks.

    A signal may fire many times; each ``fire`` wakes every waiter that
    was parked at that moment.  Waiters registered after a fire wait for
    the next one.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: List[Callable[[Any], None]] = []
        self.fire_count = 0

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        self._waiters.append(callback)

    def fire(self, value: Any = None) -> None:
        """Wake all current waiters with *value*."""
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class Process:
    """A running generator process.  Create via :func:`spawn`."""

    def __init__(
        self,
        sim: Simulator,
        generator: Generator,
        name: str = "",
        priority: int = NORMAL_PRIORITY,
    ) -> None:
        self._sim = sim
        self._gen = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Event priority of this process's timed wake-ups.  Processes
        #: whose actions must precede same-timestamp peers (e.g. the
        #: checkpoint coordinator's trigger vs. the per-instance
        #: accounting ticks it races with) declare that ordering here
        #: instead of relying on scheduling-order tie-breaking, which
        #: the race sanitizer deliberately perturbs.
        self.priority = priority
        self.finished = False
        self.result: Any = None
        #: Fired once, with :attr:`result`, when the generator returns.
        self.done = Signal(f"{self.name}.done")

    def _start(self) -> None:
        self._advance(None)

    def _advance(self, value: Any) -> None:
        if self.finished:
            return
        try:
            wait = self._gen.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.done.fire(self.result)
            return
        self._park(wait)

    def _park(self, wait: Any) -> None:
        if isinstance(wait, (int, float)):
            if wait < 0:
                raise SimulationError(f"process {self.name!r} yielded negative delay")
            self._sim.schedule_after(
                float(wait), self._advance, None, priority=self.priority
            )
        elif isinstance(wait, Signal):
            wait.add_waiter(self._advance)
        elif isinstance(wait, Process):
            if wait.finished:
                self._sim.call_soon(self._advance, wait.result)
            else:
                wait.done.add_waiter(self._advance)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported wait {wait!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name!r} {state}>"


def spawn(
    sim: Simulator,
    generator: Generator,
    name: str = "",
    delay: float = 0.0,
    priority: int = NORMAL_PRIORITY,
) -> Process:
    """Start *generator* as a process after *delay* seconds.

    *priority* orders the process's timed wake-ups against other events
    at the same timestamp (see :attr:`Process.priority`).
    """
    process = Process(sim, generator, name=name, priority=priority)
    if delay > 0:
        sim.schedule_after(delay, process._start, priority=priority)
    else:
        sim.call_soon(process._start)
    return process
