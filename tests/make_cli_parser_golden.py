#!/usr/bin/env python
"""Regenerate tests/data/cli_parser_golden.json and
tests/data/cli_stdout_golden.json after a deliberate change to the
``repro`` command line.

The checked-in files were recorded at the commit before
``experiments/cli.py`` became a command table (the 13-arm if-chain);
``tests/test_cli.py`` asserts the table reproduces both.

Usage::

    PYTHONPATH=src python tests/make_cli_parser_golden.py
"""

import contextlib
import io
import json
import os

from test_cli import (
    PARSER_GOLDEN,
    STDOUT_COMMANDS,
    STDOUT_GOLDEN,
    parser_structure,
)

from repro.experiments.cli import build_parser, main

if __name__ == "__main__":
    PARSER_GOLDEN.write_text(
        json.dumps(parser_structure(build_parser()), indent=2) + "\n"
    )
    print(f"wrote {PARSER_GOLDEN}")

    os.environ["REPRO_CACHE"] = "off"
    golden = {}
    for command in STDOUT_COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(command.split())
        golden[command] = {"exit": code, "stdout": stdout.getvalue()}
    STDOUT_GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {STDOUT_GOLDEN}")
