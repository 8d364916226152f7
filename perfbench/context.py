"""Machine context stamped on every result file.

A host-time number means nothing without the box it was taken on, so
each result records the commit, interpreter, core count, CPU model and
load at the time of the run.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

from . import ROOT


def _git(*args: str):
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_context() -> dict:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),  # None outside a git checkout
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }
