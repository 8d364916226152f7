#!/usr/bin/env python
"""Regenerate tests/data/figure_golden.json after a deliberate change
to what a figure measures.

The checked-in file was recorded at the commit before the figure
functions became rows of one table, by calling each function at the
golden's settings; ``tests/test_experiments_figures_smoke.py`` asserts
that :func:`~repro.experiments.figures.run_figures` reproduces every
hash, and this script reproduces the file byte for byte.

Usage::

    PYTHONPATH=src python tests/make_figure_golden.py
"""

import json

from repro.experiments.figures import FIGURES, run_figures
from test_experiments_figures_smoke import (
    FIGURE_GOLDEN,
    GOLDEN_SETTINGS,
    figure_hashes,
)

if __name__ == "__main__":
    hashes = figure_hashes(run_figures(FIGURES, GOLDEN_SETTINGS))
    FIGURE_GOLDEN.write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"wrote {len(hashes)} hashes to {FIGURE_GOLDEN}")
