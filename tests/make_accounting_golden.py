#!/usr/bin/env python
"""Regenerate tests/data/accounting_golden.json after a deliberate change
to what the accounting tick computes (memtable growth, the probe put,
memtable-full flushes).

The checked-in file was written while a second, one-process-per-instance
accounting path still existed, and only after both paths gave the same
digests; a regeneration that changes it changes the model.

Usage::

    PYTHONPATH=src python tests/make_accounting_golden.py
"""

import json

from test_determinism_goldens import ACCOUNTING_GOLDEN, accounting_golden

if __name__ == "__main__":
    golden = accounting_golden()
    ACCOUNTING_GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {ACCOUNTING_GOLDEN}")
