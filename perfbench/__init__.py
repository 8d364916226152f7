"""perfbench — the repository's one benchmark.

Four workloads (``fig12_sweep``, ``scenario_pass``, ``lsm_dataplane``,
``traced_audit``), host-time end-to-end metrics measured with tracing
off, and one probe per layer measured in a separate traced pass.  The
names, units and regression bounds live in ``BENCHMARK.json`` at the
repository root; ``perfbench/README.md`` is the glossary.

Run from the repository root::

    python -m perfbench run                 # end-to-end pass, all workloads
    python -m perfbench trace               # traced pass + per-layer probes
    python -m perfbench compare A.json B.json

``python -m perfbench child --workload W --seed N --seconds S --trace 0|1``
is the single-workload process both commands (and the PR driver) spawn.

Only :mod:`repro`'s public surface is used (``repro.api`` first), and
nothing outside ``perfbench/`` is written.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Repository root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the package under test lives; put on ``sys.path`` on demand.
SRC = ROOT / "src"
#: The only directory the benchmark writes to.
OUT = Path(__file__).resolve().parent / "out"


def require_repro() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    Exits with status 2 (and no result line) when the checkout holds no
    program to measure — the benchmark never falls back to an installed
    copy, which would measure some other commit.
    """
    if not (SRC / "repro" / "api.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_manifest() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    import json

    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _children(pid: int) -> list:
    """Pids whose parent is *pid*, read from ``/proc``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # gone between listing and reading
        # "pid (comm) state ppid ..."; comm may itself hold spaces or ")".
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Called on every path out of ``python -m perfbench``.  The spawn
    pools the program opens for ``jobs=2`` start multiprocessing's
    resource tracker, which ignores SIGTERM and would otherwise outlive
    this process by a moment; it is closed the way the interpreter
    closes it, and anything else still running is terminated, then
    killed, then reaped.
    """
    import os
    import signal
    import time

    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        try:
            tracker._stop()
        except (AttributeError, OSError):
            pass  # the sweep below kills what is left
    for sig in (signal.SIGTERM, signal.SIGKILL):
        left = _children(os.getpid())
        if not left:
            return
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while left and time.monotonic() < deadline:
            for pid in list(left):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        left.remove(pid)
                except ChildProcessError:
                    left.remove(pid)
            if left:
                time.sleep(0.01)


def python_cmd() -> list:
    """``python -m perfbench`` for a child, warning filters carried over."""
    return [sys.executable, *(f"-W{opt}" for opt in sys.warnoptions),
            "-m", "perfbench"]
