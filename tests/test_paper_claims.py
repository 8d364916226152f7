"""The claims table (`repro paper`): the transcription from the old
``benchmarks/`` suite is pinned by a golden, the cheap figures gate
tier-1, and the gate is shown to bite."""

import json
from pathlib import Path

import pytest

from repro.experiments import claims
from repro.experiments.claims import CLAIMS, FIGURES, evaluate
from repro.experiments.cli import EXPERIMENTS, main
from repro.experiments.figures import ABLATIONS

#: [label, quantity, paper, measured] as the parent's benchmark suite
#: recorded them (regenerate: tests/make_paper_claims_golden.py).
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "paper_claims_golden.json").read_text()
)

#: Figures needing at most two simulations: the tier-1 gate (``fig3`` is
#: the alias of ``fig1``: it selects the rows of the function they share).
FAST = ("fig3", "table1", "fig6", "fig7", "fig8", "fig16", "fig17", "fig18",
        "fig19", "fig20", "headline")
SLOW = ("fig12", "fig13", "fig14", "fig15", *ABLATIONS)


def check(report):
    """Every row holds, ``ok*`` marks exactly the rows with a note, and
    the printed cells equal the golden's."""
    assert [row.status for row in report.rows] == [
        "ok*" if row.note else "ok" for row in report.rows
    ]
    assert report.ok
    labels = {row.label for row in report.rows}
    assert [
        [row.label, row.quantity, row.paper, row.measured] for row in report.rows
    ] == [cells for cells in GOLDEN if cells[0] in labels]


@pytest.fixture(scope="module")
def fast_report():
    return evaluate(FAST)


def test_fast_figures_hold_and_print_the_golden(fast_report):
    check(fast_report)


@pytest.mark.parametrize("figure", FAST)
def test_claims_hold_at_standard_settings(fast_report, figure):
    rows = [
        row for row in fast_report.rows if FIGURES[row.figure] is FIGURES[figure]
    ]
    assert rows and all(row.ok for row in rows), [
        (row.quantity, row.measured) for row in rows if not row.ok
    ]


@pytest.mark.slow
def test_sweeps_and_ablations_hold_and_print_the_golden():
    check(evaluate(SLOW))


def test_table_is_complete_and_matches_the_golden_labels():
    assert [[c.label, c.quantity, c.paper] for c in CLAIMS] == [
        cells[:3] for cells in GOLDEN
    ]
    assert all(c.figure in FIGURES for c in CLAIMS)
    pairs = [(c.figure, c.quantity) for c in CLAIMS]
    assert len(set(pairs)) == len(pairs)
    # every id `repro run` accepts (aliases through their function) and
    # every ablation is read by at least one row, and a lane runs it
    measured = {FIGURES[c.figure] for c in CLAIMS}
    assert measured == set(EXPERIMENTS.values()) | set(ABLATIONS.values())
    assert {FIGURES[name] for name in FAST + SLOW} == measured


def test_a_bent_claim_fails_the_gate(monkeypatch, capsys):
    headline = FIGURES["headline"]
    monkeypatch.setitem(
        claims.FIGURES, "headline",
        lambda jobs=None: {**headline(jobs=jobs), "reduction_p999": 0.5},
    )
    report = evaluate(["headline"])
    assert [row.ok for row in report.rows] == [False, True]
    assert not report.ok
    assert main(["paper", "headline"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_unknown_figure_is_a_usage_error():
    with pytest.raises(SystemExit) as usage:
        main(["paper", "nosuchfig"])
    assert usage.value.code == 2
