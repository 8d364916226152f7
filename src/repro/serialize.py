"""Canonical JSON: the one serialization every content address uses.

Config and result classes own their plain-data form (``to_dict`` and a
``from_dict`` classmethod); this module only turns such data into bytes
that do not depend on how the dicts were built.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["canonical_json"]


def canonical_json(data: Any) -> str:
    """Insertion-order-independent JSON text of plain data.

    Keys are sorted recursively and separators are minimal, so two
    structurally equal payloads serialize to the same bytes no matter
    how their dicts were built.  This is the one serialization every
    content address (cache keys, state digests) must go through — the
    order-sanitizer (:mod:`repro.sanitize.ordering`) verifies it.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
