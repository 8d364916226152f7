"""API-evolution helpers.

The public configuration dataclasses (:class:`ExperimentSettings`,
:class:`RunSpec`) are keyword-only: passing fields positionally silently
reorders them when fields are added — exactly the class of bug behind
the positional-settings crash fixed in PR 1.  :func:`keyword_only`
enforces that at the constructor while keeping one release of grace for
legacy callers: positional arguments still map onto the declared field
order, but emit a :class:`DeprecationWarning` and will become a
``TypeError`` in a future release.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings

__all__ = ["keyword_only"]


def keyword_only(cls):
    """Class decorator making a dataclass's ``__init__`` keyword-only.

    Positional calls are deprecated, not (yet) rejected: they warn and
    are mapped onto the declared field order, so behaviour is
    well-defined during the migration window.
    """
    fields = [f.name for f in dataclasses.fields(cls)]
    original = cls.__init__

    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        if args:
            warnings.warn(
                f"positional arguments to {cls.__name__}() are deprecated; "
                "pass every field by keyword",
                DeprecationWarning,
                stacklevel=2,
            )
            if len(args) > len(fields):
                raise TypeError(
                    f"{cls.__name__}() takes at most {len(fields)} "
                    f"arguments ({len(args)} given)"
                )
            for name, value in zip(fields, args):
                if name in kwargs:
                    raise TypeError(
                        f"{cls.__name__}() got multiple values for "
                        f"argument {name!r}"
                    )
                kwargs[name] = value
        original(self, **kwargs)

    cls.__init__ = __init__
    return cls
