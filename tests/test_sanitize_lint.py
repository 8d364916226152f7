"""Golden-diagnostic tests for the static determinism lint."""

import json
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.sanitize import (
    RULES,
    findings_json,
    lint_paths,
    lint_source,
    render_findings,
)

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
VIOLATIONS = FIXTURES / "violations.py"
CLEAN = FIXTURES / "clean.py"
REPO = Path(__file__).parents[1]
PACKAGE = REPO / "src" / "repro"
GOLDEN = Path(__file__).parent / "data" / "lint_findings_golden.json"
GOLDEN_TARGETS = (FIXTURES, REPO / "perfbench")
GOLDEN_RULES = (None, ["DS1xx"], ["DS2xx"], ["DS103"])


def lint_golden() -> dict:
    """``"<target> <rules>" -> findings`` over the golden grid, with
    paths relative to the repository root."""
    golden = {}
    for target in GOLDEN_TARGETS:
        for rules in GOLDEN_RULES:
            key = f"{target.relative_to(REPO).as_posix()} {','.join(rules or ['all'])}"
            golden[key] = [
                dict(f.to_dict(), path=Path(f.path).relative_to(REPO).as_posix())
                for f in lint_paths([target], rules=rules)
            ]
    return golden


def test_rule_registry_is_complete():
    assert sorted(RULES) == [
        "DS101", "DS102", "DS103", "DS104", "DS105",
        "DS201", "DS202", "DS203", "DS204", "DS205",
    ]
    for rule in RULES.values():
        assert rule.hint and rule.summary and rule.name


@pytest.mark.parametrize(
    "rule_id, line, fragment",
    [
        ("DS101", 15, "time.time()"),
        ("DS102", 19, "random.random()"),
        ("DS102", 23, "numpy.random.rand()"),
        ("DS103", 27, "set literal"),
        ("DS104", 32, "mutable_default()"),
        ("DS105", 37, "shared_registry"),
    ],
)
def test_golden_diagnostics(rule_id, line, fragment):
    findings = lint_paths([VIOLATIONS])
    matches = [f for f in findings if f.rule_id == rule_id and f.line == line]
    assert len(matches) == 1, render_findings(findings)
    finding = matches[0]
    assert fragment in finding.message
    assert finding.location == f"{VIOLATIONS}:{line}:{finding.col}"
    assert RULES[rule_id].hint == finding.hint


def test_violation_fixture_has_exactly_the_planted_findings():
    findings = lint_paths([VIOLATIONS])
    assert [f.rule_id for f in findings] == [
        "DS101", "DS102", "DS102", "DS103", "DS104", "DS105",
    ]


def test_clean_fixture_and_suppressions():
    assert lint_paths([CLEAN]) == []


def test_inline_suppression_is_rule_specific():
    source = "import time\n\nt = time.time()  # repro: allow[DS101] boot stamp\n"
    assert lint_source(source, "x.py") == []
    # A suppression for a different rule must not silence the finding.
    wrong = "import time\n\nt = time.time()  # repro: allow[DS102]\n"
    findings = lint_source(wrong, "x.py")
    assert [f.rule_id for f in findings] == ["DS101"]


def test_suppression_accepts_rule_name_and_wildcard():
    by_name = "import time\nT = time.time()  # repro: allow[wall-clock]\n"
    assert lint_source(by_name, "x.py") == []
    wildcard = "import random\nV = random.random()  # repro: allow[*]\n"
    assert lint_source(wildcard, "x.py") == []


def test_suppression_on_preceding_line():
    source = (
        "import time\n"
        "# repro: allow[DS101] harness-only timing\n"
        "T = time.time()\n"
    )
    assert lint_source(source, "x.py") == []


def test_syntax_error_reports_ds000():
    findings = lint_source("def broken(:\n", "x.py")
    assert len(findings) == 1
    assert findings[0].rule_id == "DS000"


def test_findings_json_shape():
    report = findings_json(lint_paths([VIOLATIONS]))
    assert report["tool"] == "repro.sanitize.lint"
    assert report["count"] == 6
    assert set(report["rules"]) == set(RULES)
    assert json.loads(json.dumps(report)) == report
    first = report["findings"][0]
    assert {"path", "line", "col", "rule_id", "rule_name", "message",
            "hint"} <= set(first)


def test_render_findings_tallies_by_rule():
    text = render_findings(lint_paths([VIOLATIONS]))
    assert "6 finding(s)" in text
    assert "DS102 x2" in text
    assert f"{VIOLATIONS}:15:" in text


def test_repro_package_is_lint_clean():
    findings = lint_paths([PACKAGE])
    assert findings == [], render_findings(findings)


def test_simulation_reads_no_wall_clock():
    """No wall-clock read in the package, and none waved through: the
    harness's own timing is perfbench's, not ``src/repro``'s."""
    from repro.sanitize.lint import _allowed_rules

    findings = lint_paths([PACKAGE], rules=["DS101"])
    assert findings == [], render_findings(findings)
    wall_clock = RULES["DS101"]
    suppressed = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, labels in _allowed_rules(path.read_text("utf-8")).items()
        if "*" in labels or any(wall_clock.matches(label) for label in labels)
    ]
    assert suppressed == []


def test_cli_lint_exit_codes(capsys):
    assert main(["lint", str(VIOLATIONS)]) == 1
    out = capsys.readouterr().out
    assert "DS101[wall-clock]" in out
    assert main(["lint", str(CLEAN)]) == 0
    assert main(["lint", str(FIXTURES / "missing.py")]) == 2


def test_cli_lint_json(capsys):
    assert main(["lint", str(VIOLATIONS), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 6


def test_overlapping_paths_lint_each_file_once():
    once = lint_paths([FIXTURES])
    twice = lint_paths([FIXTURES, VIOLATIONS, FIXTURES])
    assert [f.location for f in twice] == [f.location for f in once]


def test_findings_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert lint_golden() == golden


def test_lint_paths_parses_each_file_once(monkeypatch):
    import ast

    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    lint_paths([FIXTURES])
    assert sorted(parsed) == sorted(str(p) for p in FIXTURES.rglob("*.py"))


def test_ds1xx_lint_never_builds_the_project_graph(monkeypatch):
    from repro.sanitize.syncgraph import callgraph

    def refuse(sources):
        raise AssertionError("DS1xx rules do not read the project graph")

    monkeypatch.setattr(callgraph, "build_project", refuse)
    findings = lint_paths([FIXTURES], rules=["DS1xx"])
    assert [f.rule_id for f in findings] == [
        "DS101", "DS102", "DS102", "DS103", "DS104", "DS105",
    ]


def test_unparsable_file_in_tree_reports_ds000(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n")
    (tmp_path / "ok.py").write_text("import time\nT = time.time()\n")
    assert [f.rule_name for f in lint_paths([tmp_path])] == [
        "syntax-error", "wall-clock",
    ]
    assert [f.rule_name for f in lint_paths([tmp_path], rules=["DS2xx"])] == [
        "syntax-error",
    ]


def test_unreadable_file_reports_ds000(tmp_path):
    bad = tmp_path / "latin.py"
    bad.write_bytes(b"x = '\xe9'\n")  # not valid UTF-8
    findings = lint_paths([bad])
    assert [f.rule_id for f in findings] == ["DS000"]
    assert findings[0].rule_name == "unreadable-file"
    # A directory containing it still lints its healthy siblings.
    good = tmp_path / "ok.py"
    good.write_text("import time\nT = time.time()\n")
    findings = lint_paths([tmp_path])
    assert [(f.rule_id, Path(f.path).name) for f in findings] == [
        ("DS000", "latin.py"), ("DS101", "ok.py"),
    ]


def test_unknown_rule_label_has_did_you_mean():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError) as exc:
        lint_paths([CLEAN], rules=["DS10"])
    assert "did you mean" in str(exc.value)


def test_sarif_export_shape():
    from repro.sanitize import findings_sarif

    sarif = findings_sarif(lint_paths([VIOLATIONS]))
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert [r["id"] for r in driver["rules"]] == sorted(RULES)
    assert len(run["results"]) == 6
    first = run["results"][0]
    assert first["ruleId"] == "DS101"
    assert driver["rules"][first["ruleIndex"]]["id"] == "DS101"
    region = first["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 15
    assert json.loads(json.dumps(sarif)) == sarif


def test_sarif_result_for_unregistered_rule_has_no_index():
    from repro.sanitize import findings_sarif
    from repro.sanitize.lint import lint_source as _ls

    sarif = findings_sarif(_ls("def broken(:\n", "x.py"))
    (result,) = sarif["runs"][0]["results"]
    assert result["ruleId"] == "DS000"
    assert "ruleIndex" not in result


def test_cli_lint_format_sarif(capsys):
    assert main(["lint", str(VIOLATIONS), "--format", "sarif"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    assert len(sarif["runs"][0]["results"]) == 6


def test_cli_lint_rules_filter(capsys):
    assert main(["lint", str(VIOLATIONS), "--rules", "DS102", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 2
    assert main(["lint", str(VIOLATIONS), "--rules", "DS2xx"]) == 0
    capsys.readouterr()
    assert main(["lint", str(VIOLATIONS), "--rules", "bogus"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_cli_sync_static_only(capsys):
    assert main(["sync", "--static-only", str(PACKAGE)]) == 0
    out = capsys.readouterr().out
    assert "shadow-sync audit: clean" in out
