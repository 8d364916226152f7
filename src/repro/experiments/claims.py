"""The paper's claims as one checked table (``repro paper``).

One :class:`Claim` row per claim: the figure it is read from, the
quantity, the paper's value, what is measured and how it prints, and
the *shape* predicate the reproduction is held to.  The substrate is a
calibrated simulator, so predicates pin who wins, by roughly what
factor, and where the knees fall — not the authors' absolute numbers;
a row that meets its predicate but not the paper's literal value says
why in ``note`` and renders ``ok*``.

Every threshold is calibrated at :data:`DEFAULT_SETTINGS` (200 s run,
40 s warmup, seed 1), which is why :func:`evaluate` takes no duration,
warmup or seed.  A new claim — extension claims included — is one more
row; see DESIGN.md §10.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .figures import FIGURES, run_figures
from .report import render_table

__all__ = ["CLAIMS", "FIGURES", "Claim", "ClaimResult", "ClaimsReport", "evaluate"]


@dataclass(frozen=True)
class Claim:
    """One row: a paper claim and the predicate that checks it."""

    figure: str
    label: str
    quantity: str
    paper: str
    #: how the measured values print (``fmt.format(*values)``; values
    #: only the predicate needs trail the printed ones)
    fmt: str
    #: figure dict -> the measured value, or a tuple of them
    measure: Callable[[dict], object]
    #: measured values -> whether the claim's shape holds
    holds: Callable[..., bool]
    #: why the row is ``ok*``: shape met, paper's literal value not
    note: Optional[str] = None


def _near(value: Optional[float], target: float, tolerance: float) -> bool:
    return value is not None and abs(value - target) <= tolerance


def _pick(key: str, *names) -> Callable[[dict], tuple]:
    """``out[key][name]`` for each of *names*."""
    return lambda out: tuple(out[key][name] for name in names)


def _sweep(key: str, *points) -> Callable[[dict], tuple]:
    """A sweep figure's p99.9 at each of *points* of parameter *key*."""

    def measure(out: dict) -> tuple:
        p999 = {row[key]: row["p999"] for row in out["rows"]}
        return tuple(p999[point] for point in points)

    return measure


def _sides(view: Callable) -> Callable[[dict], tuple]:
    """*view* of a baseline-vs-solution figure's two runs."""
    return lambda out: (view(out["baseline"]), view(out["solution"]))


_tails = _sides(lambda run: run["tails"]["p999"])


def _peaks(out: dict) -> List[float]:
    return [peak for _time, peak in out["spikes"]]


def _burst_pattern(out: dict) -> str:
    """Which stage's compaction burst each Table 1 checkpoint carries."""
    pattern = []
    for row in out["rows"]:
        if row["compaction_count"].get("s0", 0) >= 32:
            pattern.append("s0")
        elif row["compaction_count"].get("s1", 0) >= 32:
            pattern.append("s1")
        else:
            pattern.append("-")
    return ",".join(pattern)


def _burst_sizes(out: dict) -> List[int]:
    totals = [sum(row["compaction_count"].values()) for row in out["rows"]]
    return [total for total in totals if total >= 32]


def _flush_counts(out: dict) -> List[int]:
    return [
        row["flush_count"].get(stage, 0)
        for row in out["rows"]
        for stage in ("s0", "s1")
    ]


def _input_mb(out: dict) -> tuple:
    burst_mb = [
        row["compaction_input_mb"]
        for row in out["rows"]
        if row["compaction_input_mb"] > 0
    ]
    return min(burst_mb), max(burst_mb)


def _cpu_at_spikes(out: dict) -> tuple:
    """Figure 6: spikes with a clearly saturated CPU, all spikes, the
    least saturated fraction, and whether s0's queue builds at each."""
    saturated = out["cpu_saturated_fraction_at_spikes"]
    times, s0_queue, _s1_queue = (np.asarray(series) for series in out["queues"])
    quiet = 10 * max(np.median(s0_queue), 1.0)
    queues_build = all(
        s0_queue[(times >= spike - 3.0) & (times <= spike + 3.0)].max() > quiet
        for spike, _peak in out["spikes"]
    )
    return (
        sum(1 for fraction in saturated if fraction > 0.15),
        len(out["spikes"]),
        min(saturated, default=0.0),
        queues_build,
    )


def _verdict(out: dict) -> tuple:
    """The detector's verdict, its attributed and its detected spikes."""
    return out["verdict"], out["attributed_spikes"], out["detected_spikes"]


def _joint_bursts(out: dict) -> int:
    """Checkpoint periods in which *both* stages burst (Figure 8)."""
    return sum(
        1
        for counts in out["per_checkpoint_compactions"].values()
        if counts.get("s0", 0) >= 32 and counts.get("s1", 0) >= 32
    )


def _low_high(out: dict) -> tuple:
    """Figure 15: mean tail at the lowest vs the top observed
    compaction concurrency (the rising branch past the knee), and how
    many concurrency levels were observed."""
    levels, means = out["levels"], out["mean_p999"]
    low = means[levels.index(min(levels))]
    top = max(levels)
    high = max(mean for level, mean in zip(levels, means) if level >= top - 1)
    return low, high, len(levels)


def _busy_checkpoints(run: dict) -> int:
    return sum(
        1
        for counts in run["per_checkpoint_compactions"].values()
        if sum(counts.values()) > 0
    )


_SPIKE_NOTE = (
    "both stages' bursts share a checkpoint and spikes recur every 32 s, "
    "topping out just under the paper's 2 s (goes with the measurement "
    "findings pinned in tests/test_measurement_validity.py)"
)

#: The table, in the paper's order; ablations (DESIGN.md §6) last.
CLAIMS: Sequence[Claim] = (
    Claim("fig1", "Fig 1/3", "latency floor [s]", "0.2-0.4", "{:.2f}",
          lambda out: out["floor_s"],
          lambda floor: 0.15 <= floor <= 0.5),
    Claim("fig1", "Fig 1/3", "spike period [s]", "32", "{:.0f}",
          lambda out: out["spike_period_s"],
          lambda period: _near(period, 32.0, 3.0)),
    Claim("fig1", "Fig 1/3", "spike peaks [s]", ">1", "{:.2f}-{:.2f}",
          lambda out: (min(_peaks(out)), max(_peaks(out)), len(out["spikes"])),
          lambda _low, high, spikes: spikes >= 3 and high > 1.0),
    Claim("fig1", "Fig 1/3", "ShadowSync verdict", "scheduled", "{} {}/{}",
          _verdict,
          lambda verdict, attributed, _spikes: (
              verdict == "scheduled" and attributed >= 3
          )),
    Claim("table1", "Table 1", "burst pattern over 5 CPs", "s1,-,s0,-,s1", "{}",
          lambda out: (_burst_pattern(out), len(out["rows"])),
          lambda pattern, rows: rows == 5 and pattern == "s1,-,s0,-,s1"),
    Claim("table1", "Table 1", "compactions per burst", "64", "{}",
          lambda out: (_burst_sizes(out), _flush_counts(out)),
          lambda bursts, flushes: (
              all(size >= 64 for size in bursts)
              and all(count == 64 for count in flushes)
          )),
    Claim("table1", "Table 1", "compaction input [MB]", "392-2029", "{:.0f}-{:.0f}",
          _input_mb,
          lambda low, _high: low > 50,
          note="proportional to the smaller per-entry state calibration (~1 kB "
               "car objects); per-job input (5-10 MB) matches the paper's ~9 MB"),
    Claim("fig6", "Fig 6", "CPU ~100% at spikes", "yes", "{}/{} spikes",
          _cpu_at_spikes,
          lambda _hot, spikes, least_saturated, queues_build: (
              spikes > 0 and least_saturated > 0.1 and queues_build
          )),
    Claim("fig6", "Fig 6", "peak compaction concurrency", "64", "{:.0f}",
          lambda out: max(out["compaction_concurrency"][1]),
          lambda peak: peak >= 64),
    Claim("fig7", "Fig 7", "flush spans in window", "128(+1)", "{}",
          lambda out: len(out["flush_spans"]),
          lambda spans: spans >= 128),
    Claim("fig7", "Fig 7", "compaction spans in window", "64", "{}",
          lambda out: len(out["compaction_spans"]),
          lambda spans: spans >= 64),
    Claim("fig7", "Fig 7", "mean durations flush vs compaction [s]",
          "flush << compaction", "{:.2f} vs {:.2f}",
          lambda out: (out["mean_flush_s"], out["mean_compaction_s"]),
          lambda flush, compaction: compaction > 3.0 * flush),
    Claim("fig8", "Fig 8", "max spike [s]", ">2", "{:.2f}",
          lambda out: max(_peaks(out)),
          lambda peak: peak > 1.8,
          note=_SPIKE_NOTE),
    Claim("fig8", "Fig 8", "spike period [s]", "32", "{:.0f}",
          lambda out: out["spike_period_s"],
          lambda period: _near(period, 32.0, 3.0)),
    Claim("fig8", "Fig 8", "joint s0+s1 bursts", "every 4th CP", "{} periods",
          _joint_bursts,
          lambda periods: periods >= 2),
    Claim("fig8", "Fig 8", "ShadowSync verdict", "statistical", "{} {}/{}",
          _verdict,
          lambda verdict, attributed, _spikes: (
              verdict == "statistical" and attributed >= 3
          )),
    Claim("fig12", "Fig 12", "best delay [ms]", "1000-3000", "{:.0f}",
          lambda out: (out["best_delay_s"] * 1000, out["best_delay_s"]),
          lambda _ms, best: 0.5 <= best <= 3.0),
    Claim("fig12", "Fig 12", "p99.9 at 0.1/1.0/8.0 s delay", "high/low/high",
          "{:.2f}/{:.2f}/{:.2f}",
          _sweep("delay_s", 0.1, 1.0, 8.0, 3.0),
          lambda short, best, wrapped, plateau: (
              best < short  # too-short delay is worse
              and best < wrapped  # wrap-around delay is worse
              and plateau < 1.25 * best  # flat through 3000 ms
          )),
    Claim("fig13", "Fig 13", "best flush threads", "16 (= cores)", "{}",
          lambda out: out["best_flush_threads"],
          lambda best: 8 <= best <= 32,
          note="8/16/32 threads are within noise of each other in our model; "
               "under- and over-allocation both hurt, as in the paper"),
    Claim("fig13", "Fig 13", "p99.9 at 1/16/64 threads", "catastrophic/best/worse",
          "{:.2f}/{:.2f}/{:.2f}",
          _sweep("flush_threads", 1, 16, 64, 4),
          lambda one, cores, over, under: (
              one > 5.0 * cores  # 1 thread is catastrophic
              and under > cores
              and over > cores
          )),
    Claim("fig14", "Fig 14", "best compaction threads", "4", "{}",
          lambda out: out["best_compaction_threads"],
          lambda best: best in (2, 4),
          note="2 and 4 threads are flat in our model; a handful is best and "
               "the default 16 far worse, as in the paper"),
    Claim("fig14", "Fig 14", "p99.9 at 1/4/16 threads", "minutes/best/high",
          "{:.1f}/{:.2f}/{:.2f}",
          _sweep("compaction_threads", 1, 4, 16, 8),
          lambda one, knee, default, past_knee: (
              one > 4.0  # divergent: the tail grows with run length
              and default > 2.5 * knee
              and past_knee > knee
          )),
    Claim("fig15", "Fig 15", "Kneedle knee (recommended threads)", "4", "{}",
          lambda out: out["recommended_threads"],
          lambda knee: 2 <= knee <= 10,
          note="the fair-share CPU model only degrades 50 ms windows beyond ~8 "
               "concurrent compactions; still far below the harmful default 16"),
    Claim("fig15", "Fig 15", "latency low vs high concurrency [s]",
          "rising past knee", "{:.2f} vs {:.2f}",
          _low_high,
          lambda low, high, levels: levels >= 5 and high > 1.3 * low),
    Claim("fig16", "Fig 16", "peak p99.9 baseline -> solution [s]", ">2 -> <0.5",
          "{:.2f} -> {:.2f}",
          _sides(lambda run: run["peak_p999"]),
          lambda baseline, solution: baseline > 1.8 and solution < 0.45 * baseline,
          note=_SPIKE_NOTE),
    Claim("fig16", "Fig 16", "peak compaction concurrency", "128 -> spread",
          "{:.0f} -> {:.0f}",
          _sides(lambda run: run["compaction_concurrency_peak"]),
          lambda baseline, solution: baseline >= 96 and solution <= 0.7 * baseline),
    Claim("fig16", "Fig 16", "checkpoints with compactions", "1 in 4 -> all",
          "{} -> {}",
          _sides(_busy_checkpoints),
          lambda baseline, solution: solution > 2 * baseline),
    Claim("fig17", "Fig 17", "p99.9 baseline [s]", "1.3", "{0:.2f}",
          _tails,
          lambda baseline, _solution: 0.9 <= baseline <= 1.8),
    Claim("fig17", "Fig 17", "p99.9 solution [s]", "0.7", "{1:.2f}",
          _tails,
          lambda baseline, solution: solution < 0.75 * baseline and solution < 0.9),
    Claim("fig18", "Fig 18", "window p99.9 peak baseline -> solution [s]",
          "3 -> <2", "{:.2f} -> {:.2f}",
          _sides(lambda run: max(run["timeline"][1])),
          lambda baseline, solution: baseline > 1.0 and solution < 0.75 * baseline),
    Claim("fig18", "Fig 18", "flush+compaction overlap [s]", "reduced",
          "{:.1f} -> {:.1f}",
          _sides(lambda run: run["overlap"]["flush_compaction_overlap_s"]),
          lambda baseline, solution: solution < baseline),
    Claim("fig19", "Fig 19", "NVMe p99.9 baseline [s]", "2.3", "{0:.2f}",
          _tails,
          # the multi-second-class tail persists on SSD
          lambda baseline, _solution: baseline > 1.4),
    Claim("fig19", "Fig 19", "NVMe p99.9 solution [s]", "<0.5x baseline", "{1:.2f}",
          lambda out: (*_tails(out), out["reduction_p95"]),
          lambda baseline, solution, p95_ratio: (
              solution < 0.6 * baseline and p95_ratio < 0.6
          )),
    Claim("fig20", "Fig 20", "NVMe vs tmpfs baseline p99.9 [s]", "worse on NVMe",
          "{:.2f} vs {:.2f}",
          lambda out: (_tails(out)[0], out["tmpfs_baseline_p999"]),
          lambda nvme, tmpfs: nvme > tmpfs),
    Claim("fig20", "Fig 20", "NVMe p99.9 solution [s]", "improved", "{1:.2f}",
          _tails,
          lambda baseline, solution: solution < 0.7 * baseline),
    Claim("headline", "§5 headline", "p99.9 reduction", "<20%", "{:.0%}",
          lambda out: (out["reduction_p999"], out["baseline"]["p999"],
                       out["mitigated"]["p999"]),
          lambda ratio, baseline, mitigated: (
              ratio < 0.35 and baseline > 1.5 and mitigated < 0.8
          ),
          note="the residual is the flush stop-the-world stall, which no §4 "
               "mitigation addresses and which weighs more here than on the "
               "authors' testbed"),
    Claim("headline", "§5 headline", "p95 reduction", "<50%", "{:.0%}",
          lambda out: out["reduction_p95"],
          lambda ratio: ratio < 0.50),
    Claim("ablation_mitigations", "Ablation A", "p99.9 base/random/delay/both [s]",
          "(not in paper)", "{:.2f}/{:.2f}/{:.2f}/{:.2f}",
          _pick("p999", "baseline", "random-only", "delay-only", "both"),
          lambda baseline, randomized, delayed, both: (
              # each technique alone helps; randomization is the bigger lever
              randomized < 0.75 * baseline
              and delayed < baseline
              and randomized < delayed
              # the combination is at least as good as the best single one
              and both <= 1.05 * min(randomized, delayed)
          )),
    Claim("ablation_mitigations", "Ablation B", "p99.9 at spread 1/2/4/8",
          "(not in paper)", "{:.2f}/{:.2f}/{:.2f}/{:.2f}",
          _pick("spread_p999", 1, 2, 4, 8),
          lambda fixed, _two, cycle, wide: (
              # spread=1 is a deterministic trigger: the burst stays synchronized
              cycle < 0.7 * fixed
              # past the cycle length nothing more desynchronizes while each
              # compaction's input grows, so spread=8 regresses somewhat
              and wide < fixed
              and wide < 1.6 * cycle
          )),
    Claim("ablation_gc", "Ablation C", "mitigated p99.9 without/with GC [s]",
          "(§6, future work)", "{:.2f} / {:.2f}",
          lambda out: (out["quiet"]["p999"], out["with_gc"]["p999"],
                       out["quiet"]["max"], out["with_gc"]["max"]),
          # GC pauses create a tail the LSM mitigations cannot remove
          lambda quiet, paused, quiet_max, paused_max: (
              paused > 1.2 * quiet and paused_max > quiet_max
          )),
    Claim("ablation_silk", "Ablation D", "p99.9 baseline/SILK/solution [s]",
          "SILK helps, §7", "{:.2f}/{:.2f}/{:.2f}",
          _pick("p999", "baseline", "silk", "solution"),
          lambda baseline, silk, solution: (
              silk < 0.6 * baseline and solution <= silk * 1.05
          )),
    Claim("ablation_silk", "Ablation D", "burst concentration SILK vs solution",
          "sync persists under SILK", "{:.0%} vs {:.0%}",
          _pick("concentration", "silk", "solution"),
          lambda silk, solution: silk > 2.0 * solution),
    Claim("ablation_silk", "Ablation D", "heavy-compaction p99.9 SILK vs solution [s]",
          "throttled pool falls behind", "{:.2f} vs {:.2f}",
          _pick("heavy_p999", "silk", "solution"),
          lambda silk, solution: silk > solution),
    Claim("ablation_silk", "Ablation D",
          "heavy-compaction write stalls SILK vs solution", "(not in paper)",
          "{} vs {}",
          _pick("heavy_write_stalls", "silk", "solution"),
          lambda silk, solution: silk >= solution),
    Claim("ablation_checkpoint", "Ablation E", "p99.9 incremental vs full snapshot [s]",
          "(why [8] is canonical)", "{:.2f} vs {:.2f}",
          _pick("p999", "incremental", "full"),
          # ShadowSync exists even with incremental checkpoints (§7)
          lambda incremental, full: full > incremental and incremental > 1.5),
    Claim("ablation_checkpoint", "Ablation E",
          "checkpoint volume incremental vs full [GB]", "(not in paper)",
          "{:.1f} vs {:.1f}",
          _pick("checkpoint_gb", "incremental", "full"),
          # compaction bursts dominate the tail either way; the volume is
          # the cost [8] exists to avoid
          lambda incremental, full: full > 2.5 * incremental),
)


@dataclass(frozen=True)
class ClaimResult:
    """One evaluated row."""

    figure: str
    label: str
    quantity: str
    paper: str
    measured: str
    ok: bool
    note: Optional[str] = None

    @property
    def status(self) -> str:
        if not self.ok:
            return "FAIL"
        return "ok*" if self.note else "ok"


@dataclass(frozen=True)
class ClaimsReport:
    """The paper-vs-measured table (report protocol, DESIGN.md §9)."""

    rows: Sequence[ClaimResult]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def render(self) -> str:
        cells = [
            [row.label, row.quantity, row.paper, row.measured, row.status]
            for row in self.rows
        ]
        notes = [
            f"* {row.label}, {row.quantity}: {row.note}"
            for row in self.rows
            if row.note and row.ok
        ]
        held = sum(1 for row in self.rows if row.ok)
        return "\n".join([
            render_table(["experiment", "quantity", "paper", "measured", ""], cells),
            *notes,
            f"paper claims: {held}/{len(self.rows)} hold",
        ])

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rows": [{**asdict(row), "status": row.status} for row in self.rows],
        }


def evaluate(
    figures: Optional[Sequence[str]] = None, jobs: Optional[int] = None
) -> ClaimsReport:
    """Check the rows of *figures* (default: the whole table).

    :func:`~repro.experiments.figures.run_figures` makes each distinct
    run of the selected figures once, at the standard settings; an alias
    (``fig3``) selects the rows of the figure it shares.  *jobs* fans
    the runs of the summary figures over worker processes.
    """
    wanted = {FIGURES[name] for name in figures or FIGURES}
    selected = [claim for claim in CLAIMS if FIGURES[claim.figure] in wanted]
    outs = run_figures(dict.fromkeys(claim.figure for claim in selected), jobs=jobs)
    rows = []
    for claim in selected:
        values = claim.measure(outs[claim.figure])
        if not isinstance(values, tuple):
            values = (values,)
        rows.append(
            ClaimResult(
                claim.figure, claim.label, claim.quantity, claim.paper,
                claim.fmt.format(*values), bool(claim.holds(*values)), claim.note,
            )
        )
    return ClaimsReport(rows)
