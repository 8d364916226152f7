"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at an API boundary.

:func:`did_you_mean` is the shared suggestion helper used wherever a
user-supplied name (scenario, lint rule, policy) misses a registry: it
turns the miss into a readable hint instead of a bare ``KeyError``.
"""

from __future__ import annotations

import difflib
from typing import Iterable


def did_you_mean(name: str, options: Iterable[str], n: int = 3) -> str:
    """`` (did you mean a, b?)`` hint for *name* against *options*.

    Returns an empty string when nothing is close enough, so callers
    can append the result to an error message unconditionally.
    """
    close = difflib.get_close_matches(name, sorted(options), n=n)
    return f" (did you mean {', '.join(close)}?)" if close else ""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised when the simulation kernel is misused or reaches an
    inconsistent state (e.g. scheduling an event in the past)."""


class ConfigurationError(ReproError):
    """Raised when an experiment or component configuration is invalid."""


class LSMError(ReproError):
    """Base class for LSM-tree store errors."""


class StoreClosedError(LSMError):
    """Raised when operating on a closed :class:`~repro.lsm.store.LSMStore`."""


class FrozenMemtableError(LSMError):
    """Raised when writing to a memtable that has been frozen for flush."""


class WorkerCrashError(ReproError):
    """Raised when a spawn worker process of the experiment executor
    dies mid-run (killed, out of memory, or a driver script without an
    ``if __name__ == "__main__"`` guard re-running itself in the child)
    instead of returning its result."""


class AnalysisError(ReproError):
    """Raised when an analysis routine receives degenerate input
    (e.g. fewer than three points for knee detection)."""


class ResilienceError(ReproError):
    """Base class for errors raised by :mod:`repro.resilience` — the
    closed-loop overload-protection layer (SLO guard and load
    shedding)."""


class OverloadError(ResilienceError):
    """Raised when the system failed to stay within its overload budget:
    a soak run whose windowed tail latency never recovered after a fault
    window, an unshed queue blow-up, or an invariant violation under
    load.  See :meth:`repro.resilience.soak.SoakReport.require_pass`."""

