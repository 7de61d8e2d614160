"""Abstract value domain for the soundness auditor's range MFP.

The builder's subsumption test works over two set shapes (see
:mod:`repro.analysis.branch_info`): closed intervals, and punctured
lines (the non-interval side of ``==`` / ``!=``).  The auditor must be
able to *carry* both shapes along paths, so its lattice element is an
interval with at most one missing interior point, a flat tuple:

    (lo, hi, hole)   meaning   [lo, hi] \\ {hole}

All operations over-approximate (the result always contains the exact
set), which is the direction soundness needs: the auditor proves a BAT
action correct by showing the over-approximated value set at the
checked branch still lies inside the claimed outcome set.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.branch_info import OutcomeSet
from ..analysis.ranges import NEG_INF, POS_INF, Interval
from ..ir.instructions import Variable

#: ``[lo, hi] \ {hole}``; empty when ``lo > hi``; no hole is ``None``.
ValueRange = Tuple[float, float, Optional[int]]

#: No information.
TOP: ValueRange = (NEG_INF, POS_INF, None)


def normalize(lo: float, hi: float, hole: Optional[int]) -> ValueRange:
    """Canonical form: drop holes outside the interval, convert holes at
    a finite endpoint into a tighter interval."""
    if hole is None or not lo <= hole <= hi:
        return (lo, hi, None)
    if lo == hi:  # single point minus itself
        return (1, 0, None)
    if hole == lo:
        return (lo + 1, hi, None)
    if hole == hi:
        return (lo, hi - 1, None)
    return (lo, hi, hole)


def from_outcome(outcome: OutcomeSet) -> ValueRange:
    if outcome.interval is not None:
        return (outcome.interval.lo, outcome.interval.hi, None)
    return normalize(NEG_INF, POS_INF, outcome.hole)


def subset_of_outcome(values: ValueRange, outcome: OutcomeSet) -> bool:
    """True when every value in ``values`` satisfies ``outcome`` — the
    auditor's proof obligation at the checked branch."""
    lo, hi, hole = values
    if lo > hi:
        return True
    if outcome.interval is not None:
        # The hole cannot help unless it sits at an endpoint, and
        # normalization already folded endpoint holes away.
        return Interval(lo, hi).subsumes(outcome.interval)
    excluded = outcome.hole
    assert excluded is not None  # a punctured line
    return not lo <= excluded <= hi or hole == excluded


def intersect(a: ValueRange, b: ValueRange) -> ValueRange:
    # Exact intersection may puncture two points; keeping one is a
    # sound over-approximation.
    hole = a[2] if a[2] is not None else b[2]
    return normalize(max(a[0], b[0]), min(a[1], b[1]), hole)


def join(a: ValueRange, b: ValueRange) -> ValueRange:
    """Convex-hull union.  A hole survives only when both sides exclude
    it, which keeps equality correlations provable across joins of
    identical punctured sets; of two such holes ``a``'s is kept, so the
    join is not commutative.  A normalized hole is interior to its own
    set, hence to the hull."""
    alo, ahi, ahole = a
    blo, bhi, bhole = b
    if alo > ahi:
        return b
    if blo > bhi:
        return a
    lo = blo if blo < alo else alo
    hi = bhi if bhi > ahi else ahi
    if ahole is not None and (ahole == bhole or not blo <= ahole <= bhi):
        return (lo, hi, ahole)
    if bhole is not None and not alo <= bhole <= ahi:
        return (lo, hi, bhole)
    return (lo, hi, None)


def affine_image(values: ValueRange, sign: int, offset: int) -> ValueRange:
    """The set of ``sign * v + offset`` for ``v`` in ``values``."""
    lo, hi, hole = values
    if lo > hi:
        return (lo, hi, None)
    if sign == -1:
        lo, hi = -hi, -lo
    image = None if hole is None else sign * hole + offset
    return normalize(lo + offset, hi + offset, image)


def render(values: ValueRange) -> str:
    interval = str(Interval(values[0], values[1]))
    return interval if values[2] is None else f"{interval}\\{{{values[2]}}}"


#: An abstract environment: variable -> value set; missing means top.
Env = Dict[Variable, ValueRange]


def env_get(env: Env, var: Variable) -> ValueRange:
    return env.get(var, TOP)


def env_set(env: Env, var: Variable, value: ValueRange) -> None:
    """Store a binding, keeping the dict sparse (top is implicit)."""
    if value == TOP:
        env.pop(var, None)
    else:
        env[var] = value


def env_join(a: Env, b: Env) -> Env:
    """Pointwise join; variables missing on either side are top.

    One pass over ``a``, probing ``b`` once per variable.  A value both
    sides agree on (the same object, or an equal one) is its own join,
    because every value set is in canonical form, so ``a``'s is reused.
    The value join is not commutative, so ``a``'s value always goes on
    the left.  When the join equals ``a``, ``a`` itself is returned, so
    callers test for a change with ``is``."""
    joined: Env = {}
    same = True
    for var, left in a.items():
        right = b.get(var)
        if right is None:
            same = False
            continue
        value = left
        if left is not right and left != right:
            value = join(left, right)
            if value != left:
                same = False
        if value == TOP:
            same = False
        else:
            joined[var] = value
    return a if same else joined


def env_widen(old: Env, new: Env) -> Env:
    """Pointwise widening of ``new`` against the previous state, in one
    pass over ``old``: bounds that grew jump to ±inf, and a hole
    survives only where both sides keep it (a value both sides agree on
    widens to itself)."""
    widened: Env = {}
    for var, left in old.items():
        right = new.get(var)
        if right is None:
            continue
        if left is not right and left != right:
            lo, hi, hole = left
            rlo, rhi, rhole = right
            if lo > hi:
                lo, hi = rlo, rhi
            elif rlo <= rhi:
                lo = lo if rlo >= lo else NEG_INF
                hi = hi if rhi <= hi else POS_INF
            left = normalize(lo, hi, hole if hole == rhole else None)
        if left != TOP:
            widened[var] = left
    return widened
