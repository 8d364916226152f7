"""Every example script loads against the current public surface.

Each script is executed under a ``run_name`` other than ``"__main__"``,
so its imports and module-level code run but its ``main()`` (and the
simulations in it) does not.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_loads_without_running(path):
    namespace = runpy.run_path(str(path), run_name="example_under_test")
    assert callable(namespace["main"])
