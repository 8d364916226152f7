#!/usr/bin/env python
"""Regenerate tests/data/many_flow_golden.json after a deliberate change
to the fluid model (what a node CPU shared by many flows computes).

Usage::

    PYTHONPATH=src python tests/make_many_flow_golden.py
"""

import json

from test_determinism_goldens import MANY_FLOW_GOLDEN, many_flow_golden

if __name__ == "__main__":
    golden = many_flow_golden()
    MANY_FLOW_GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANY_FLOW_GOLDEN}")
