"""Andersen-style, flow-insensitive, whole-module points-to analysis.

Stand-in for the Wilson–Lam pointer analysis pass the paper used with
SUIF [27].  The analysis computes, for every register and for the
memory contents of every variable, the set of variables it may point
to, then annotates each indirect access with the variables it may
touch.

Inclusion constraints (solved to a fixpoint):

=====================  ============================================
``t = addr v``          pts(t) ⊇ {v}
``t = load v``          pts(t) ⊇ mem(v)
``store v, t``          mem(v) ⊇ pts(t)
``t = load [a]``        pts(t) ⊇ mem(v) for every v ∈ pts(a)
``store [a], t``        mem(v) ⊇ pts(t) for every v ∈ pts(a)
``t = a (+|-) b``       pts(t) ⊇ pts(a) ∪ pts(b)   (stay-in-object)
``t = call f(args)``    param_i(f) ⊇ pts(arg_i); pts(t) ⊇ returns(f)
=====================  ============================================

Pointer arithmetic is assumed to stay within the pointed-to object
(standard C assumption); tampering that violates it is a *runtime*
phenomenon the interpreter models, not something the compiler must
predict.

An indirect access whose address register has an *empty* points-to set
derives its address from data the analysis cannot see (e.g. an input
value).  Such accesses are flagged :attr:`AliasResult.UNKNOWN` and
treated as touching anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from ..ir.function import IRModule
from ..ir.instructions import (
    AddrOf,
    BinOp,
    Call,
    Load,
    LoadIndirect,
    Reg,
    Return,
    Store,
    StoreIndirect,
    UnOp,
    Variable,
)


@dataclass
class AliasResult:
    """Points-to facts for one module."""

    #: pts of each (function name, register).
    reg_points_to: Dict[Tuple[str, Reg], FrozenSet[Variable]] = field(
        default_factory=dict
    )
    #: pts of the memory contents of each variable.
    mem_points_to: Dict[Variable, FrozenSet[Variable]] = field(default_factory=dict)
    #: Every variable whose address is ever taken (may be accessed
    #: indirectly from anywhere).
    address_taken: FrozenSet[Variable] = frozenset()


def analyze_aliases(module: IRModule) -> AliasResult:
    """Run the points-to fixpoint and annotate indirect accesses.

    Mutates the ``may_alias`` field of every ``LoadIndirect`` /
    ``StoreIndirect`` in the module (a deliberately explicit side
    effect: later analyses read the annotation off the instruction).
    """
    reg_pts: Dict[Tuple[str, Reg], Set[Variable]] = {}
    mem_pts: Dict[Variable, Set[Variable]] = {}
    param_regs: Dict[str, List[Variable]] = {
        fn.name: fn.params for fn in module.functions
    }
    return_sources: Dict[str, Set[Tuple[str, Reg]]] = {
        fn.name: set() for fn in module.functions
    }
    for fn in module.functions:
        for block in fn.blocks:
            terminator = block.instructions[-1] if block.instructions else None
            if isinstance(terminator, Return) and isinstance(terminator.value, Reg):
                return_sources[fn.name].add((fn.name, terminator.value))

    def reg_set(fn_name: str, reg: Reg) -> Set[Variable]:
        return reg_pts.setdefault((fn_name, reg), set())

    def mem_set(var: Variable) -> Set[Variable]:
        return mem_pts.setdefault(var, set())

    changed = True
    while changed:
        changed = False

        def absorb(target: Set[Variable], source: Set[Variable]) -> None:
            nonlocal changed
            before = len(target)
            target |= source
            if len(target) != before:
                changed = True

        for fn in module.functions:
            for instruction in fn.instructions():
                if isinstance(instruction, AddrOf):
                    absorb(reg_set(fn.name, instruction.dest), {instruction.var})
                elif isinstance(instruction, Load):
                    absorb(
                        reg_set(fn.name, instruction.dest),
                        mem_set(instruction.var),
                    )
                elif isinstance(instruction, Store):
                    if isinstance(instruction.src, Reg):
                        absorb(
                            mem_set(instruction.var),
                            reg_set(fn.name, instruction.src),
                        )
                elif isinstance(instruction, LoadIndirect):
                    dest = reg_set(fn.name, instruction.dest)
                    for var in list(reg_set(fn.name, instruction.addr)):
                        absorb(dest, mem_set(var))
                elif isinstance(instruction, StoreIndirect):
                    if isinstance(instruction.src, Reg):
                        src = reg_set(fn.name, instruction.src)
                        for var in list(reg_set(fn.name, instruction.addr)):
                            absorb(mem_set(var), src)
                elif isinstance(instruction, BinOp):
                    if instruction.op in ("+", "-"):
                        dest = reg_set(fn.name, instruction.dest)
                        for operand in (instruction.lhs, instruction.rhs):
                            if isinstance(operand, Reg):
                                absorb(dest, reg_set(fn.name, operand))
                elif isinstance(instruction, UnOp):
                    if isinstance(instruction.src, Reg):
                        absorb(
                            reg_set(fn.name, instruction.dest),
                            reg_set(fn.name, instruction.src),
                        )
                elif isinstance(instruction, Call):
                    callee_params = param_regs.get(instruction.callee)
                    if callee_params is not None:
                        for param, arg in zip(callee_params, instruction.args):
                            if isinstance(arg, Reg):
                                absorb(
                                    mem_set(param), reg_set(fn.name, arg)
                                )
                        if instruction.dest is not None:
                            dest = reg_set(fn.name, instruction.dest)
                            for source_key in return_sources[instruction.callee]:
                                absorb(dest, reg_pts.get(source_key, set()))
                    # Builtins neither take nor return pointers.

    address_taken: Set[Variable] = set()
    for fn in module.functions:
        for instruction in fn.instructions():
            if isinstance(instruction, AddrOf):
                address_taken.add(instruction.var)
    # Parameters that received pointers also make their targets reachable.
    for targets in list(mem_pts.values()):
        address_taken |= targets

    result = AliasResult(
        reg_points_to={k: frozenset(v) for k, v in reg_pts.items()},
        mem_points_to={k: frozenset(v) for k, v in mem_pts.items()},
        address_taken=frozenset(address_taken),
    )

    # Annotate indirect accesses in place.
    for fn in module.functions:
        for instruction in fn.instructions():
            if isinstance(instruction, (LoadIndirect, StoreIndirect)):
                pts = result.reg_points_to.get(
                    (fn.name, instruction.addr), frozenset()
                )
                instruction.may_alias = tuple(
                    sorted(pts, key=lambda v: (v.name, v.uid))
                )
    return result
