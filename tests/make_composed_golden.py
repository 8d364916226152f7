#!/usr/bin/env python
"""Regenerate tests/data/composed_run_golden.json after a deliberate
change to what a faults + resilience + cluster run reports.

Usage::

    PYTHONPATH=src python tests/make_composed_golden.py
"""

import json

from test_subsystem_seam import COMPOSED_GOLDEN, composed_digest, composed_run

if __name__ == "__main__":
    golden = composed_digest(composed_run())
    COMPOSED_GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {COMPOSED_GOLDEN}")
