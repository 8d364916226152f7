"""Hot-spot profiling for simulation runs (``repro profile``).

Two complementary views of where a run's wall-clock goes:

* the **dispatch histogram** — per-callback event counts and self time
  measured by the kernel itself
  (:meth:`repro.sim.kernel.Simulator.enable_dispatch_stats`): two
  ``perf_counter`` reads per event, cheap enough to trust the relative
  numbers;
* an optional **cProfile pass** over the same run for function-level
  attribution.  Interpreter tracing inflates small-function overhead
  severalfold (roughly 3× on the benchmark topology), so cProfile rows
  rank suspects; the dispatch histogram and differential wall-clock
  timing decide.

Used by the ``repro profile <experiment>`` CLI and
:func:`repro.api.profile`, so future hot-spot hunts don't start from
scratch.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass, field
from time import perf_counter  # repro: allow[DS101] profiler wall-clock, never model time
from typing import List, Optional

__all__ = ["ProfileReport", "profile_run"]


@dataclass
class ProfileReport:
    """Profile of one simulation run."""

    kind: str = "traffic"
    label: str = ""
    duration_s: float = 0.0
    seed: int = 0
    #: Wall-clock of the profiled run (inflated when cProfile is on).
    wall_s: float = 0.0
    events: int = 0
    #: Dispatch histogram rows, sorted by self time descending:
    #: ``{"callback": str, "count": int, "self_s": float}``.
    dispatch: List[dict] = field(default_factory=list)
    #: cProfile rows sorted by tottime descending (empty when the
    #: cProfile pass was skipped): ``{"function": str, "calls": int,
    #: "tottime": float, "cumtime": float}``.
    hotspots: List[dict] = field(default_factory=list)

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "wall_s": self.wall_s,
            "events": self.events,
            "events_per_second": self.events_per_second,
            "dispatch": list(self.dispatch),
            "hotspots": list(self.hotspots),
        }

    def render(self, top: int = 20) -> str:
        lines = [
            f"== profile: {self.label or self.kind} — "
            f"{self.duration_s:g} simulated s in {self.wall_s:.3f} wall s, "
            f"{self.events} events ({self.events_per_second:,.0f}/s) =="
        ]
        lines.append("")
        lines.append("dispatch histogram (kernel self time per callback):")
        lines.append(f"{'count':>8}  {'self [ms]':>10}  {'per-event [us]':>14}  callback")
        for row in self.dispatch[:top]:
            per_event = row["self_s"] / row["count"] * 1e6 if row["count"] else 0.0
            lines.append(
                f"{row['count']:>8}  {row['self_s'] * 1e3:>10.1f}  "
                f"{per_event:>14.1f}  {row['callback']}"
            )
        if self.hotspots:
            lines.append("")
            lines.append(
                "cProfile hotspots (tracing inflates small functions ~3x; "
                "rank with the histogram above):"
            )
            lines.append(
                f"{'calls':>10}  {'tottime [ms]':>12}  {'cumtime [ms]':>12}  function"
            )
            for row in self.hotspots[:top]:
                lines.append(
                    f"{row['calls']:>10}  {row['tottime'] * 1e3:>12.1f}  "
                    f"{row['cumtime'] * 1e3:>12.1f}  {row['function']}"
                )
        return "\n".join(lines)


def profile_run(
    kind="baseline_traffic",
    duration_s: float = 104.0,
    seed: int = 1,
    label: str = "",
    with_cprofile: bool = True,
    shards: int = 1,
    top: int = 50,
) -> ProfileReport:
    """Profile one run; returns a :class:`ProfileReport`.

    *kind* is what to run: a library scenario name (or the
    ``traffic``/``wordcount`` aliases), a
    :class:`~repro.scenarios.spec.ScenarioSpec` or its dict form.  The
    run always records the kernel dispatch histogram; *with_cprofile*
    additionally wraps it in a cProfile pass (slower, function-level).
    ``shards = G`` profiles the 1/G slice a sharded worker executes.
    """
    from ..scenarios.run import build_scenario_job, resolve_scenario

    spec = resolve_scenario(kind)
    job = build_scenario_job(spec, seed=seed, scale=shards)
    job.sim.enable_dispatch_stats()
    profiler: Optional[cProfile.Profile] = None
    started = perf_counter()  # repro: allow[DS101] profiler wall-clock
    if with_cprofile:
        profiler = cProfile.Profile()
        profiler.enable()
    job.run(duration_s)
    if profiler is not None:
        profiler.disable()
    wall = perf_counter() - started  # repro: allow[DS101] profiler wall-clock

    dispatch = [
        {"callback": name, "count": count, "self_s": self_s}
        for name, (count, self_s) in job.sim.dispatch_stats().items()
    ]
    dispatch.sort(key=lambda row: row["self_s"], reverse=True)

    hotspots: List[dict] = []
    if profiler is not None:
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        rows = sorted(
            stats.stats.items(),  # type: ignore[attr-defined]
            key=lambda item: item[1][2],  # tottime
            reverse=True,
        )
        for (filename, lineno, func), (cc, nc, tottime, cumtime, _) in rows[:top]:
            where = (
                func if filename.startswith("~") or filename == "<built-in>"
                else f"{filename}:{lineno}({func})"
            )
            hotspots.append({
                "function": where,
                "calls": int(nc),
                "tottime": float(tottime),
                "cumtime": float(cumtime),
            })

    return ProfileReport(
        kind=spec.app,
        label=label or spec.name,
        duration_s=duration_s,
        seed=seed,
        wall_s=wall,
        events=job.sim.events_fired,
        dispatch=dispatch[:top],
        hotspots=hotspots,
    )
