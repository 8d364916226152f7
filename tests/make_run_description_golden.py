#!/usr/bin/env python
"""Regenerate tests/data/run_description_golden.json after a deliberate
change to what the five short equivalence runs report.

The checked-in file was recorded at the commit before ``RunSpec`` lost
its ``kind``/``mitigation``/``interval_s``/``initial_l0``/``storage``
fields, through that legacy spelling (quoted beside each case in
``test_run_description.CASES``); this script records the same runs
through the scenario spelling.

Usage::

    PYTHONPATH=src python tests/make_run_description_golden.py
"""

import json

from test_run_description import CASES, GOLDEN, summary_digest

if __name__ == "__main__":
    golden = {name: summary_digest(make()) for name, make in CASES.items()}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
