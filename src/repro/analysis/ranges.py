"""Integer interval domain used for branch range reasoning.

The paper's correlation test is *subsumption*: "if a variable is in one
range, then it must be in the other range, e.g., range [0, 5] subsumes
range [0, 10]" (§4).  Intervals over ℤ ∪ {±∞} are exactly expressive
enough for the single-variable relational branch conditions the
analysis extracts (``v + k RELOP c``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..ir.instructions import RelOp

#: Sentinels for unbounded interval ends.
NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """A closed integer interval [lo, hi]; either end may be infinite.

    An empty interval (lo > hi) means "no value possible" — a branch
    outcome that can never occur.
    """

    lo: float
    hi: float

    # -- constructors ---------------------------------------------------

    @staticmethod
    def top() -> "Interval":
        """All integers (no information); one shared instance."""
        return _TOP

    @staticmethod
    def empty() -> "Interval":
        return Interval(1, 0)

    @staticmethod
    def point(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def at_most(value: int) -> "Interval":
        return Interval(NEG_INF, value)

    @staticmethod
    def at_least(value: int) -> "Interval":
        return Interval(value, POS_INF)

    @staticmethod
    def from_relop(op: RelOp, bound: int, taken: bool) -> Optional["Interval"]:
        """The set of values for which ``value op bound`` has outcome
        ``taken``.

        Returns ``None`` only for the one non-interval case:
        the *not-taken* side of ``==`` and the *taken* side of ``!=``
        (a punctured line is not an interval).
        """
        effective = op if taken else op.negate()
        if effective is RelOp.LT:
            return Interval.at_most(bound - 1)
        if effective is RelOp.LE:
            return Interval.at_most(bound)
        if effective is RelOp.GT:
            return Interval.at_least(bound + 1)
        if effective is RelOp.GE:
            return Interval.at_least(bound)
        if effective is RelOp.EQ:
            return Interval.point(bound)
        return None  # RelOp.NE: complement of a point is not an interval

    # -- queries ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == NEG_INF and self.hi == POS_INF

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def subsumes(self, other: "Interval") -> bool:
        """True if every value in ``self`` is also in ``other``.

        Matches the paper's wording: "range [0, 5] subsumes range
        [0, 10]" — i.e. *self ⊆ other*.  An empty self subsumes
        anything.
        """
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def union_hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (convex hull)."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- arithmetic --------------------------------------------------------

    def shift(self, delta: int) -> "Interval":
        """The interval of ``v + delta`` for ``v`` in self."""
        if self.is_empty:
            return self
        return Interval(self.lo + delta, self.hi + delta)

    def negate(self) -> "Interval":
        if self.is_empty:
            return self
        return Interval(-self.hi, -self.lo)

    def widen_against(self, newer: "Interval") -> "Interval":
        """Standard interval widening: any bound that moved outward in
        ``newer`` jumps straight to infinity.

        Used by fixpoint range propagation (the static soundness
        auditor's MFP) to guarantee termination on loops that keep
        growing a value — e.g. an incremented counter — without losing
        the bounds that stayed stable.
        """
        if self.is_empty:
            return newer
        if newer.is_empty:
            return self
        lo = self.lo if newer.lo >= self.lo else NEG_INF
        hi = self.hi if newer.hi <= self.hi else POS_INF
        return Interval(lo, hi)

    def __str__(self) -> str:
        if self.is_empty:
            return "[empty]"
        lo = "-inf" if self.lo == NEG_INF else str(int(self.lo))
        hi = "+inf" if self.hi == POS_INF else str(int(self.hi))
        return f"[{lo}, {hi}]"


_TOP = Interval(NEG_INF, POS_INF)


def taken_partition(op: RelOp, bound: int) -> Tuple[Optional[Interval], Optional[Interval]]:
    """The (taken, not-taken) value sets of ``value op bound``.

    Each side is an :class:`Interval` or ``None`` when that side is not
    an interval (the punctured-line side of ``==``/``!=``).  The two
    sides always partition ℤ.
    """
    return (
        Interval.from_relop(op, bound, taken=True),
        Interval.from_relop(op, bound, taken=False),
    )
