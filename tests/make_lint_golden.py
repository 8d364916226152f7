#!/usr/bin/env python3
"""Regenerate tests/data/lint_findings_golden.json after a deliberate
change to a lint rule or to a linted fixture.

The golden holds ``Finding.to_dict()`` lists for the lint fixtures and
``perfbench/`` under every rule selection in ``GOLDEN_RULES``;
``tests/test_sanitize_lint.py`` asserts ``lint_paths`` still reports
exactly these findings.

Run from the repository root:

    PYTHONPATH=src python tests/make_lint_golden.py
"""

import json

from test_sanitize_lint import GOLDEN, lint_golden

if __name__ == "__main__":
    golden = lint_golden()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    counts = ", ".join(f"{key}: {len(rows)}" for key, rows in golden.items())
    print(f"wrote {GOLDEN} ({counts})")
