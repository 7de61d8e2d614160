"""Auditor-side interprocedural transfer summaries, re-derived from
scratch.

The ``--opt 2`` builder suppresses call-only kills using
:mod:`repro.analysis.summaries`.  The auditor must not take those
summaries on faith: this module re-derives equivalent per-function
transfer facts from the *auditor's own* forward block walk
(:func:`repro.staticcheck.facts.summarize_block` steps), sharing no
derivation code with the builder.  Matched per-block precision on both
sides is deliberate — the audit must be able to re-prove exactly what
the builder proved, no more and no less.

Two consumers:

* the correlation audit's range MFP uses :meth:`IPSummaries.call_image`
  to push environments *through* call steps instead of clobbering to
  top — sound at every opt level, since summaries only add precision;
* the interproc audit (``IP5xx``) uses :meth:`IPSummaries.preserves`
  and :meth:`IPSummaries.region_summary` to re-prove each suppression
  and to re-render the canonical provenance text independently.

The call image must handle *iterated* writes (a loop in the callee, or
several call sites in a row): a delta hull ``[lo, hi]`` is first closed
under repetition — any negative delta closes to ``-inf``, any positive
one to ``+inf`` — before being added to the incoming set.  The builder
side needs no closure for its preservation proof (that argument is
inductive per write), but an *image* states where the value can end up
after any number of writes, so the closure is load-bearing here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..analysis.branch_info import OutcomeSet
from ..analysis.defs import analyze_definitions
from ..analysis.purity import PurityResult
from ..analysis.ranges import NEG_INF, POS_INF, Interval
from ..ir.function import IRModule
from ..ir.instructions import VarKind, Variable
from .domain import TOP, ValueRange, join
from .facts import LoadTerm, summarize_function

#: Fixpoint rounds before interval widening (recursion backstop).
WIDEN_AFTER = 8


@dataclass(frozen=True)
class IPTransfer:
    """What one function may write to one global: hull of stored
    constants, hull of self-relative deltas, or top."""

    const_hull: Optional[Interval] = None
    delta_hull: Optional[Interval] = None
    top: bool = False

    @staticmethod
    def top_transfer() -> "IPTransfer":
        return IPTransfer(top=True)

    @property
    def is_identity(self) -> bool:
        return not self.top and self.const_hull is None and self.delta_hull is None

    def join(self, other: "IPTransfer") -> "IPTransfer":
        if self.top or other.top:
            return IPTransfer.top_transfer()
        return IPTransfer(
            const_hull=_hull_join(self.const_hull, other.const_hull),
            delta_hull=_hull_join(self.delta_hull, other.delta_hull),
        )

    def widen_against(self, newer: "IPTransfer") -> "IPTransfer":
        if self.top or newer.top:
            return IPTransfer.top_transfer()
        old_c, new_c = self.const_hull, newer.const_hull
        old_d, new_d = self.delta_hull, newer.delta_hull
        return IPTransfer(
            const_hull=(
                _hull_join(old_c, new_c)
                if old_c is None or new_c is None
                else old_c.widen_against(new_c)
            ),
            delta_hull=(
                _hull_join(old_d, new_d)
                if old_d is None or new_d is None
                else old_d.widen_against(new_d)
            ),
        )

    def preserves(self, outcome: OutcomeSet) -> bool:
        """Inductive preservation: every single write maps a value in
        ``outcome`` back into ``outcome`` (see the builder-side twin in
        :mod:`repro.analysis.summaries` for the full argument)."""
        if self.top:
            return False
        if self.const_hull is not None and not self.const_hull.is_empty:
            if not outcome.superset_of(self.const_hull):
                return False
        delta = self.delta_hull
        if delta is not None and not delta.is_empty:
            if outcome.interval is None:
                return delta.lo == 0 and delta.hi == 0
            interval = outcome.interval
            if interval.is_empty:
                return False
            if interval.lo != NEG_INF and delta.lo < 0:
                return False
            if interval.hi != POS_INF and delta.hi > 0:
                return False
        return True

    def delta_closure(self) -> Interval:
        """Closure of the delta hull under repetition: the set of total
        displacements after any number of affine writes."""
        delta = self.delta_hull
        if delta is None or delta.is_empty:
            return Interval.point(0)
        return Interval(
            0 if delta.lo >= 0 else NEG_INF,
            0 if delta.hi <= 0 else POS_INF,
        )

    def image(self, values: ValueRange) -> ValueRange:
        """Over-approximate the variable's value set after the call.

        The call *may* write (sites are weak), so the incoming set is
        always part of the result; affine writes add the repetition
        closure; constant writes land in the const hull and may then be
        shifted further by more affine writes.
        """
        if self.is_identity:
            return values
        if self.top:
            return TOP
        closure = self.delta_closure()
        result = values
        if self.delta_hull is not None and not self.delta_hull.is_empty:
            result = join(result, _shift_set(values, closure))
        if self.const_hull is not None and not self.const_hull.is_empty:
            landed = (
                self.const_hull.lo + closure.lo,
                self.const_hull.hi + closure.hi,
                None,
            )
            result = join(result, landed)
        return result

    def describe(self, var_name: str) -> str:
        """Canonical summary grammar — must render byte-identically to
        the builder side (:meth:`repro.analysis.summaries.VarTransfer
        .describe`); the interproc audit compares the two strings."""
        if self.top:
            return f"{var_name}' unbounded"
        parts = []
        if self.const_hull is not None and not self.const_hull.is_empty:
            parts.append(f"{var_name}' in {self.const_hull}")
        if self.delta_hull is not None and not self.delta_hull.is_empty:
            parts.append(f"{var_name}' = {var_name} + {self.delta_hull}")
        if not parts:
            return f"{var_name}' unchanged"
        return " or ".join(parts)


def _hull_join(a: Optional[Interval], b: Optional[Interval]) -> Optional[Interval]:
    if a is None:
        return b
    if b is None:
        return a
    return a.union_hull(b)


def _shift_set(values: ValueRange, delta: Interval) -> ValueRange:
    """``{v + d : v in values, d in delta}`` (hole smears away unless
    the shift is exactly zero)."""
    lo, hi, _ = values
    if delta.lo == 0 and delta.hi == 0 or lo > hi:
        return values
    return (lo + delta.lo, hi + delta.hi, None)


def _is_summarized_global(var: Variable) -> bool:
    return var.kind is VarKind.GLOBAL and not var.is_pointer and not var.is_array


@dataclass
class _FnFacts:
    """One function's local atoms plus its call-step callees."""

    transfers: Dict[Variable, IPTransfer] = field(default_factory=dict)
    callees: Set[str] = field(default_factory=set)

    def merge_var(self, var: Variable, transfer: IPTransfer) -> None:
        current = self.transfers.get(var)
        self.transfers[var] = transfer if current is None else current.join(transfer)


@dataclass
class IPSummaries:
    """Re-derived whole-program transfer summaries.

    ``transfer_for`` is total: unknown callees (which includes builtins
    — they never produce call steps, so they are never queried with a
    variable they could write) come back as identity, and anything the
    derivation could not bound is already folded in as top.
    """

    by_function: Dict[str, Dict[Variable, IPTransfer]]

    def transfer_for(self, callee: str, var: Variable) -> IPTransfer:
        return self.by_function.get(callee, {}).get(var, IPTransfer())

    def call_image(
        self, callee: str, var: Variable, values: ValueRange
    ) -> ValueRange:
        if not _is_summarized_global(var):
            return TOP
        if callee not in self.by_function:
            return TOP  # unknown callee: conservative
        return self.transfer_for(callee, var).image(values)

    def preserves(self, callee: str, var: Variable, outcome: OutcomeSet) -> bool:
        if not _is_summarized_global(var):
            return False
        if callee not in self.by_function:
            return False
        return self.transfer_for(callee, var).preserves(outcome)

    def region_summary(
        self, callees: Tuple[str, ...], var_name: str, var: Variable
    ) -> str:
        """Canonical provenance text for one suppressed kill."""
        parts = []
        for callee in sorted(set(callees)):
            parts.append(
                f"{callee}: {self.transfer_for(callee, var).describe(var_name)}"
            )
        return "; ".join(parts)


def derive_ipsummaries(module: IRModule, purity: PurityResult) -> IPSummaries:
    """Re-derive transfer summaries from the auditor's block facts.

    Local atoms come from the forward walk's typed steps:

    * ``("store", g, ("const", c))`` — constant atom;
    * ``("store", g, ("affine", load(g), +1, d))`` — self-delta atom
      (any other term, sign, or spec is top);
    * ``("clobber", vars)`` — top for every affected global;
    * ``("call", callee, vars)`` — a call-graph edge for the fixpoint.

    Propagation is the same union fixpoint as the builder's — callees
    before callers would converge in one round on a DAG; recursion
    iterates with widening after :data:`WIDEN_AFTER` rounds.
    """
    local: Dict[str, _FnFacts] = {}
    for fn in module.functions:
        def_map, _ = analyze_definitions(fn, module, purity)
        facts = _FnFacts()
        for summary in summarize_function(fn, def_map).values():
            for step in summary.steps:
                kind = step[0]
                if kind == "store":
                    _, var, spec = step
                    if not _is_summarized_global(var):
                        continue
                    facts.merge_var(var, _atom_of_spec(var, spec))
                elif kind == "call":
                    _, callee, affected = step
                    facts.callees.add(callee)
                elif kind == "clobber":
                    for var in step[1]:
                        if _is_summarized_global(var):
                            facts.merge_var(var, IPTransfer.top_transfer())
        local[fn.name] = facts

    summaries: Dict[str, Dict[Variable, IPTransfer]] = {
        name: dict(facts.transfers) for name, facts in local.items()
    }
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for name, facts in local.items():
            merged = dict(facts.transfers)
            for callee in sorted(facts.callees):
                for var, transfer in summaries.get(callee, {}).items():
                    current = merged.get(var)
                    merged[var] = (
                        transfer if current is None else current.join(transfer)
                    )
            if merged != summaries[name]:
                if rounds > WIDEN_AFTER:
                    for var, transfer in merged.items():
                        old = summaries[name].get(var)
                        if old is not None:
                            merged[var] = old.widen_against(transfer)
                summaries[name] = merged
                changed = True
    return IPSummaries(by_function=summaries)


def _atom_of_spec(var: Variable, spec: Tuple) -> IPTransfer:
    if spec[0] == "const":
        return IPTransfer(const_hull=Interval.point(spec[1]))
    if spec[0] == "affine":
        _, term, sign, offset = spec
        if isinstance(term, LoadTerm) and term.var == var and sign == 1:
            return IPTransfer(delta_hull=Interval.point(offset))
        return IPTransfer.top_transfer()
    return IPTransfer.top_transfer()
