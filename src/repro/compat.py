"""API-evolution helpers.

The public configuration dataclasses (:class:`ExperimentSettings`,
:class:`RunSpec`, :class:`ScenarioSpec`, :class:`WorkloadSpec`) are
keyword-only: passing fields positionally silently reorders them when
fields are added or moved — exactly the class of bug behind the
positional-settings crash fixed in PR 1.  :func:`keyword_only` enforces
that at the constructor.
"""

from __future__ import annotations

import functools

__all__ = ["keyword_only"]


def keyword_only(cls):
    """Class decorator making a dataclass's ``__init__`` keyword-only:
    any positional argument raises :class:`TypeError`."""
    original = cls.__init__

    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        if args:
            raise TypeError(
                f"{cls.__name__}() takes no positional arguments "
                f"({len(args)} given); pass every field by keyword"
            )
        original(self, **kwargs)

    cls.__init__ = __init__
    return cls
