#!/usr/bin/env python
"""Regenerate tests/data/paper_claims_golden.json after a deliberate
change to a claim row or to what a figure measures.

The checked-in file was recorded at the commit before the claims table
replaced ``benchmarks/`` (the 44 ``record(...)`` rows its conftest
collected); ``tests/test_paper_claims.py`` asserts the table prints the
same labels, paper values and measured strings.

Usage::

    PYTHONPATH=src python tests/make_paper_claims_golden.py
"""

import json
from pathlib import Path

from repro.experiments.claims import evaluate

GOLDEN = Path(__file__).parent / "data" / "paper_claims_golden.json"

if __name__ == "__main__":
    rows = [
        [row.label, row.quantity, row.paper, row.measured]
        for row in evaluate().rows
    ]
    GOLDEN.write_text(json.dumps(rows, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}")
