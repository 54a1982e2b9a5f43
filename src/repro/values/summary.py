"""Per-class value summaries: exact heavy hitters + uniform tail."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional


@dataclass
class ValueSummary:
    """Distribution of leaf values over one synopsis node's extent.

    ``top`` holds exact counts for the most frequent values; the remaining
    ``rest_count`` occurrences spread over ``rest_distinct`` unseen values
    (estimated uniformly); ``null_count`` elements carry no value at all.
    """

    top: Dict[str, int] = field(default_factory=dict)
    rest_count: int = 0
    rest_distinct: int = 0
    null_count: int = 0

    # ------------------------------------------------------------------

    @property
    def total(self) -> int:
        """All elements in the extent (with or without a value)."""
        return sum(self.top.values()) + self.rest_count + self.null_count

    @classmethod
    def from_values(
        cls, values: Iterable[Optional[str]], top_k: int = 8
    ) -> "ValueSummary":
        """Summarize raw per-element values (``None`` = element w/o value)."""
        counter: Counter = Counter()
        nulls = 0
        for value in values:
            if value is None:
                nulls += 1
            else:
                counter[value] += 1
        ranked = counter.most_common()
        top = dict(ranked[:top_k])
        rest = ranked[top_k:]
        return cls(
            top=top,
            rest_count=sum(c for _v, c in rest),
            rest_distinct=len(rest),
            null_count=nulls,
        )

    # ------------------------------------------------------------------

    def probability(self, value: str) -> float:
        """``P(element's value == value)`` over the whole extent.

        Exact for retained heavy hitters; the tail answers with the
        uniform-over-unseen-values assumption (standard in selectivity
        estimation); zero when there is no tail and no match.
        """
        total = self.total
        if not total:
            return 0.0
        if value in self.top:
            return self.top[value] / total
        if self.rest_distinct:
            return (self.rest_count / self.rest_distinct) / total
        return 0.0

    def merge(self, other: "ValueSummary", top_k: int = 8) -> "ValueSummary":
        """Summary of the union of two extents (cap re-applied).

        Exact for values retained on both sides; tails add (their unseen
        value sets are assumed disjoint, a documented approximation).
        """
        combined: Counter = Counter(self.top)
        combined.update(other.top)
        ranked = combined.most_common()
        top = dict(ranked[:top_k])
        demoted = ranked[top_k:]
        return ValueSummary(
            top=top,
            rest_count=self.rest_count + other.rest_count + sum(c for _v, c in demoted),
            rest_distinct=self.rest_distinct + other.rest_distinct + len(demoted),
            null_count=self.null_count + other.null_count,
        )

    def size_bytes(self) -> int:
        """8 bytes per retained value (hash + count) + 12 bytes of tail."""
        return 8 * len(self.top) + 12

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ValueSummary(top={len(self.top)}, rest={self.rest_count}/"
            f"{self.rest_distinct}, nulls={self.null_count})"
        )
