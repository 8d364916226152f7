"""Named, seeded random-number streams.

Distributed-systems simulations need *decorrelated* randomness: the
random compaction threshold of stage instance ``s0/17`` must not change
when an unrelated component draws an extra sample.  The registry derives
one independent :class:`random.Random` stream per name from a master
seed, so adding components never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngRegistry"]


class RngRegistry:
    """A factory of stable, independent random streams.

    >>> reg = RngRegistry(42)
    >>> a = reg.stream("flush").random()
    >>> b = RngRegistry(42).stream("flush").random()
    >>> a == b
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it deterministically."""
        stream = self._streams.get(name)
        if stream is None:
            digest = hashlib.sha256(
                f"{self._master_seed}:{name}".encode("utf-8")
            ).digest()
            stream = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = stream
        return stream

    def names(self) -> list:
        """Names of streams created so far (sorted, for reproducibility)."""
        return sorted(self._streams)
