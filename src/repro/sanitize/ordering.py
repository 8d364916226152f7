"""Schedule-order sanitizer for serialization and cache keys.

The content-addressed result cache substitutes a stored
:class:`~repro.experiments.summary.RunSummary` for a live run, which is
only sound if (a) a spec's cache key never depends on the order dict
keys happened to be inserted, and (b) a summary's serialized form
round-trips independent of that order.  Both properties are easy to
break silently — one ``json.dumps`` without ``sort_keys``, one dict
rebuilt in a different order — so this module checks them dynamically
by *perturbing* insertion order with seeded shuffles and re-deriving the
key/serialization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List

from ..serialize import canonical_json

__all__ = [
    "OrderingCheck",
    "OrderingReport",
    "reorder",
    "check_cache_key_stability",
    "check_summary_order_independence",
    "check_ordering",
]


@dataclass
class OrderingCheck:
    """One verified property (or its counterexample)."""

    name: str = ""
    ok: bool = True
    perturbations: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


@dataclass
class OrderingReport:
    """Outcome of the ordering checks on one spec/summary pair."""

    checks: List[OrderingCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_dict() for c in self.checks]}

    @classmethod
    def from_dict(cls, data: dict) -> OrderingReport:
        return cls(checks=[OrderingCheck(**c) for c in data.get("checks", ())])

    def render(self) -> str:
        lines = []
        for check in self.checks:
            verdict = "ok" if check.ok else "FAIL"
            line = (
                f"ordering sanitizer: {check.name} [{verdict}] "
                f"({check.perturbations} perturbation(s))"
            )
            if check.detail:
                line += f"\n    {check.detail}"
            lines.append(line)
        return "\n".join(lines)


def reorder(data: Any, rng: random.Random) -> Any:
    """A deep copy of *data* with every dict rebuilt in shuffled
    insertion order (values recursed; lists keep their order — list
    order is semantic)."""
    if isinstance(data, dict):
        keys = list(data)
        rng.shuffle(keys)
        return {key: reorder(data[key], rng) for key in keys}
    if isinstance(data, list):
        return [reorder(item, rng) for item in data]
    if isinstance(data, tuple):
        return tuple(reorder(item, rng) for item in data)
    return data


def check_cache_key_stability(spec, perturbations: int = 8) -> OrderingCheck:
    """Cache keys must survive dict-insertion-order perturbation."""
    from ..experiments.parallel import cache_key_from_dict, spec_cache_key

    base = spec_cache_key(spec)
    for index in range(perturbations):
        shuffled = reorder(spec.key_dict(), random.Random(index))
        key = cache_key_from_dict(shuffled)
        if key != base:
            return OrderingCheck(
                name="cache-key-stability",
                ok=False,
                perturbations=index + 1,
                detail=(
                    f"perturbation {index} changed the cache key: "
                    f"{base[:16]}... -> {key[:16]}...; a non-canonical "
                    "serialization leaked into spec_cache_key"
                ),
            )
    return OrderingCheck(
        name="cache-key-stability", ok=True, perturbations=perturbations
    )


def check_summary_order_independence(summary, perturbations: int = 8) -> OrderingCheck:
    """``RunSummary`` (de)serialization must be insertion-order-free."""
    base = canonical_json(summary.to_dict())
    cls = type(summary)
    for index in range(perturbations):
        shuffled = reorder(summary.to_dict(), random.Random(index))
        revived = cls.from_dict(shuffled)
        serialized = canonical_json(revived.to_dict())
        if serialized != base:
            return OrderingCheck(
                name="summary-order-independence",
                ok=False,
                perturbations=index + 1,
                detail=(
                    f"perturbation {index} did not round-trip: "
                    "RunSummary serialization depends on dict insertion "
                    "order"
                ),
            )
    return OrderingCheck(
        name="summary-order-independence", ok=True, perturbations=perturbations
    )


def check_ordering(spec, summary, perturbations: int = 8) -> OrderingReport:
    """Run both checks for one executed ``(spec, summary)`` pair."""
    report = OrderingReport()
    report.checks.append(check_cache_key_stability(spec, perturbations))
    report.checks.append(
        check_summary_order_independence(summary, perturbations)
    )
    return report
