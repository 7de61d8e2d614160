"""Abstract value domain for the soundness auditor's range MFP.

The builder's subsumption test works over two set shapes (see
:mod:`repro.analysis.branch_info`): closed intervals, and punctured
lines (the non-interval side of ``==`` / ``!=``).  The auditor must be
able to *carry* both shapes along paths, so its lattice element is an
interval with at most one missing interior point:

    ValueSet(interval=[lo, hi], hole=q)   meaning   [lo, hi] \\ {q}

All operations over-approximate (the result always contains the exact
set), which is the direction soundness needs: the auditor proves a BAT
action correct by showing the over-approximated value set at the
checked branch still lies inside the claimed outcome set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.branch_info import OutcomeSet
from ..analysis.ranges import Interval
from ..ir.instructions import Variable


def _normalize(interval: Interval, hole: Optional[int]) -> "ValueSet":
    """Canonical form: drop holes outside the interval, convert holes at
    a finite endpoint into a tighter interval."""
    if interval.is_empty or hole is None or not interval.contains(hole):
        return ValueSet(interval, None)
    if interval.lo == interval.hi:  # single point minus itself
        return ValueSet(Interval.empty(), None)
    if hole == interval.lo:
        return ValueSet(Interval(interval.lo + 1, interval.hi), None)
    if hole == interval.hi:
        return ValueSet(Interval(interval.lo, interval.hi - 1), None)
    return ValueSet(interval, hole)


@dataclass(frozen=True)
class ValueSet:
    """An interval minus at most one interior point."""

    interval: Interval
    hole: Optional[int] = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def top() -> "ValueSet":
        """No information; one shared instance."""
        return _TOP

    @staticmethod
    def empty() -> "ValueSet":
        return ValueSet(Interval.empty(), None)

    @staticmethod
    def point(value: int) -> "ValueSet":
        return ValueSet(Interval.point(value), None)

    @staticmethod
    def from_outcome(outcome: OutcomeSet) -> "ValueSet":
        if outcome.interval is not None:
            return ValueSet(outcome.interval, None)
        return _normalize(Interval.top(), outcome.hole)

    # -- queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.interval.is_empty

    @property
    def is_top(self) -> bool:
        return self.interval.is_top and self.hole is None

    def contains(self, value: int) -> bool:
        return self.interval.contains(value) and value != self.hole

    def subset_of_outcome(self, outcome: OutcomeSet) -> bool:
        """True when every value in this set satisfies ``outcome`` —
        the auditor's proof obligation at the checked branch."""
        if self.is_empty:
            return True
        if outcome.interval is not None:
            # The hole cannot help unless it sits at an endpoint, and
            # normalization already folded endpoint holes away.
            return self.interval.subsumes(outcome.interval)
        return not self.interval.contains(outcome.hole) or self.hole == outcome.hole

    # -- lattice operations ----------------------------------------------

    def intersect(self, other: "ValueSet") -> "ValueSet":
        interval = self.interval.intersect(other.interval)
        # Exact intersection may puncture two points; keeping one is a
        # sound over-approximation.
        hole = self.hole if self.hole is not None else other.hole
        return _normalize(interval, hole)

    def join(self, other: "ValueSet") -> "ValueSet":
        """Convex-hull union.  The hole survives only when both sides
        exclude it, which keeps equality correlations provable across
        joins of identical punctured sets."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        interval = self.interval.union_hull(other.interval)
        for candidate in (self.hole, other.hole):
            if candidate is None:
                continue
            if not self.contains(candidate) and not other.contains(candidate):
                return _normalize(interval, candidate)
        return ValueSet(interval, None)

    def widen(self, newer: "ValueSet") -> "ValueSet":
        """Widening for loop fixpoints: bounds that grew jump to ±inf."""
        interval = self.interval.widen_against(newer.interval)
        hole = self.hole if self.hole == newer.hole else None
        return _normalize(interval, hole)

    # -- transfer --------------------------------------------------------

    def affine_image(self, sign: int, offset: int) -> "ValueSet":
        """The set of ``sign * v + offset`` for ``v`` in this set."""
        interval = self.interval
        if sign == -1:
            interval = interval.negate()
        interval = interval.shift(offset)
        hole = None if self.hole is None else sign * self.hole + offset
        return _normalize(interval, hole)

    def __str__(self) -> str:
        if self.hole is None:
            return str(self.interval)
        return f"{self.interval}\\{{{self.hole}}}"


_TOP = ValueSet(Interval.top(), None)

#: An abstract environment: variable -> value set; missing means top.
Env = Dict[Variable, ValueSet]


def env_get(env: Env, var: Variable) -> ValueSet:
    return env.get(var, _TOP)


def env_set(env: Env, var: Variable, value: ValueSet) -> None:
    """Store a binding, keeping the dict sparse (top is implicit)."""
    if value.is_top:
        env.pop(var, None)
    else:
        env[var] = value


def env_join(a: Env, b: Env) -> Env:
    """Pointwise join; variables missing on either side are top.

    One pass over ``a``, probing ``b`` once per variable.  A value both
    sides agree on (the same object, or an equal one) is its own join,
    because every value set is in canonical form, so ``a``'s is reused.
    The value join is not commutative (it keeps the first hole that
    both sides exclude), so ``a``'s value always goes on the left.
    When the join equals ``a``, ``a`` itself is returned, so callers
    test for a change with ``is``."""
    joined: Env = {}
    same = True
    for var, left in a.items():
        right = b.get(var)
        if right is None:
            same = False
            continue
        if left is right or left == right:
            value = left
        else:
            value = left.join(right)
            same = same and value == left
        if value.is_top:
            same = False
        else:
            joined[var] = value
    return a if same else joined


def env_widen(old: Env, new: Env) -> Env:
    """Pointwise widening of ``new`` against the previous state, in one
    pass over ``old`` (a value both sides agree on widens to itself)."""
    widened: Env = {}
    for var, left in old.items():
        right = new.get(var)
        if right is None:
            continue
        value = left if left is right or left == right else left.widen(right)
        if not value.is_top:
            widened[var] = value
    return widened
