"""The static determinism lint: run the rule registry over sources.

Entry points:

* :func:`lint_paths` — lint files/directories, return :class:`Finding`
  records sorted by location;
* :func:`render_findings` — ``file:line:col`` terminal diagnostics;
* :func:`findings_json` — the machine-readable report.

Suppression: a finding is dropped when its physical line (or the line
immediately above, for statement-level suppression) carries an inline
comment of the form ::

    x = build_registry()  # repro: allow[DS105] registry is append-only

naming the rule by ID (``DS105``) or slug (``module-singleton``);
``allow[*]`` suppresses every rule on that line.  The comment text after
the bracket should state the constraint that justifies the exception.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..errors import ConfigurationError, did_you_mean
from .rules import RULES, Rule, RuleContext

# Importing the subpackage registers the project-aware DS2xx rule
# family into RULES alongside the DS1xx determinism rules.
from . import syncgraph as _syncgraph  # noqa: E402,F401  (registration)

__all__ = [
    "Finding",
    "lint_paths",
    "lint_file",
    "lint_source",
    "render_findings",
    "findings_json",
    "findings_sarif",
]

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")

#: Rule-ID prefix of the project-aware family, the only rules that read
#: the project call graph.
_PROJECT_FAMILY = "DS2"


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    message: str
    hint: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return (
            f"{self.location}: {self.rule_id}[{self.rule_name}] "
            f"{self.message}\n    hint: {self.hint}"
        )

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule_id": self.rule_id,
            "rule_name": self.rule_name,
            "message": self.message,
            "hint": self.hint,
        }


def _allowed_rules(source: str) -> Dict[int, Set[str]]:
    """``line -> {labels}`` map of inline allow-comments (1-based)."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(text)
        if match is None:
            continue
        labels = {
            label.strip().lower()
            for label in match.group(1).split(",")
            if label.strip()
        }
        allowed[lineno] = labels
    return allowed


def _is_suppressed(
    finding_line: int, rule: Rule, allowed: Dict[int, Set[str]]
) -> bool:
    for lineno in (finding_line, finding_line - 1):
        labels = allowed.get(lineno)
        if not labels:
            continue
        if "*" in labels or any(rule.matches(label) for label in labels):
            return True
    return False


def _select_rules(rules: Optional[Iterable[str]]) -> List[Rule]:
    """Resolve rule labels: IDs, slugs, or ``DS2xx`` family prefixes.

    Unknown labels raise :class:`ConfigurationError` with a
    did-you-mean hint instead of a bare ``KeyError``.
    """
    if rules is None:
        return [RULES[rule_id] for rule_id in sorted(RULES)]
    selected: List[Rule] = []
    chosen: Set[str] = set()
    for label in rules:
        matches = [
            RULES[rule_id] for rule_id in sorted(RULES)
            if RULES[rule_id].matches(label)
        ]
        lowered = label.strip().lower()
        if not matches and lowered.endswith("xx") and len(lowered) > 2:
            prefix = lowered[:-2]
            matches = [
                RULES[rule_id] for rule_id in sorted(RULES)
                if rule_id.lower().startswith(prefix)
            ]
        if not matches:
            options = sorted(RULES) + sorted(r.name for r in RULES.values())
            raise ConfigurationError(
                f"unknown lint rule {label!r}{did_you_mean(label, options)}; "
                f"available: {', '.join(sorted(RULES))}"
            )
        for match in matches:
            if match.id not in chosen:
                chosen.add(match.id)
                selected.append(match)
    return selected


def _syntax_finding(path: str, exc: SyntaxError) -> Finding:
    """DS000 diagnostic for a file that does not parse."""
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        rule_id="DS000",
        rule_name="syntax-error",
        message=f"file does not parse: {exc.msg}",
        hint="fix the syntax error; nothing else was checked",
    )


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[str]] = None,
    project=None,
) -> List[Finding]:
    """Lint one source string; *path* labels the diagnostics.

    *project* is the shared call graph when linting a whole tree; the
    DS2xx rules build a single-file graph when it is absent.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [_syntax_finding(path, exc)]
    return _lint_tree(path, tree, source, _select_rules(rules), project)


def _lint_tree(
    path: str,
    tree: Optional[ast.Module],
    source: str,
    selected: List[Rule],
    project,
) -> List[Finding]:
    """Run the *selected* rules over one parsed file (*tree* is ``None``
    when only project rules run against a finished *project*)."""
    ctx = RuleContext(path, tree, source, project=project)
    allowed = _allowed_rules(source)
    findings: List[Finding] = []
    for rule in selected:
        for node, message in rule.check(ctx):
            line = getattr(node, "lineno", 1)
            if _is_suppressed(line, rule, allowed):
                continue
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=getattr(node, "col_offset", 0),
                    rule_id=rule.id,
                    rule_name=rule.name,
                    message=message,
                    hint=rule.hint,
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def _unreadable_finding(path: Path, exc: Exception) -> Finding:
    """DS000-style diagnostic for a file the linter could not read."""
    return Finding(
        path=str(path),
        line=1,
        col=0,
        rule_id="DS000",
        rule_name="unreadable-file",
        message=f"file cannot be read: {exc}",
        hint="fix the encoding/permissions or exclude the file; "
             "nothing was checked",
    )


def lint_file(
    path: Union[str, Path],
    rules: Optional[Iterable[str]] = None,
    project=None,
) -> List[Finding]:
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [_unreadable_finding(path, exc)]
    return lint_source(source, path=str(path), rules=rules, project=project)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated list of
    ``.py`` files (a file reachable both directly and via a parent
    directory is linted once)."""
    files: List[Path] = []
    seen: Set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates = sorted(entry.rglob("*.py"))
        elif entry.suffix == ".py":
            candidates = [entry]
        else:
            raise FileNotFoundError(f"not a python file or directory: {entry}")
        for path in candidates:
            key = path.resolve()
            if key in seen:
                continue
            seen.add(key)
            files.append(path)
    return files


def lint_paths(
    paths: Sequence[Union[str, Path]], rules: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint every ``.py`` file under *paths* (files or directories).

    Each file is parsed once and its per-file rules run on that tree.
    When a project-aware DS2xx rule is selected, every tree is also
    indexed into one project call graph, so those rules see
    cross-module call chains; they run once the graph is complete and
    read the graph, not the trees, so no tree outlives its own file.
    Unreadable, non-UTF-8 and unparsable files produce a ``DS000``
    diagnostic instead of aborting the run.
    """
    from .syncgraph.callgraph import build_project

    selected = _select_rules(rules)  # validate labels before any file IO
    project_rules = [r for r in selected if r.id.startswith(_PROJECT_FAMILY)]
    file_rules = [r for r in selected if r not in project_rules]
    findings: List[Finding] = []
    linted: List[Tuple[str, str]] = []

    def lint_each() -> Iterator[Tuple[str, ast.Module]]:
        """Parse and lint one file at a time, yielding each tree for
        indexing."""
        for path in iter_python_files(paths):
            name = str(path)
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                findings.append(_unreadable_finding(path, exc))
                continue
            try:
                tree = ast.parse(text, filename=name)
            except SyntaxError as exc:
                findings.append(_syntax_finding(name, exc))
                continue
            findings.extend(_lint_tree(name, tree, text, file_rules, None))
            linted.append((name, text))
            yield name, tree

    if project_rules:
        project = build_project(lint_each())
        for path, text in linted:
            findings.extend(_lint_tree(path, None, text, project_rules, project))
    else:
        for _ in lint_each():
            pass
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def render_findings(findings: Sequence[Finding]) -> str:
    """Terminal rendering: one diagnostic block per finding + a tally."""
    if not findings:
        return "determinism lint: clean (0 findings)"
    lines = [finding.render() for finding in findings]
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
    tally = ", ".join(f"{rule_id} x{count}" for rule_id, count in sorted(by_rule.items()))
    lines.append(f"determinism lint: {len(findings)} finding(s) ({tally})")
    return "\n".join(lines)


def findings_json(findings: Sequence[Finding]) -> dict:
    """The JSON report shape (stable: consumed by CI annotations)."""
    return {
        "tool": "repro.sanitize.lint",
        "rules": {
            rule.id: {"name": rule.name, "summary": rule.summary}
            for rule in RULES.values()
        },
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }


_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def findings_sarif(findings: Sequence[Finding]) -> dict:
    """SARIF 2.1.0 export (``repro lint --format sarif``).

    GitHub code scanning ingests this shape directly, so lint findings
    light up as PR annotations.
    """
    rule_ids = sorted(RULES)
    index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    driver_rules = [
        {
            "id": rule_id,
            "name": RULES[rule_id].name,
            "shortDescription": {"text": RULES[rule_id].summary},
            "help": {"text": RULES[rule_id].hint},
            "defaultConfiguration": {"level": "error"},
        }
        for rule_id in rule_ids
    ]
    results = []
    for finding in findings:
        result = {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {
                "text": f"{finding.message} (hint: {finding.hint})"
            },
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": Path(finding.path).as_posix()
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        if finding.rule_id in index:
            result["ruleIndex"] = index[finding.rule_id]
        results.append(result)
    return {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": driver_rules,
                    }
                },
                "results": results,
            }
        ],
    }
