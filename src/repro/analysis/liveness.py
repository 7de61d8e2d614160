"""Backward liveness analysis over memory-resident variables.

A variable is *live* at a program point if some path from there reaches
a read of it with no intervening certain overwrite.  Reads include
direct loads, indirect loads through their alias sets (or everything
when the alias set is unknown), and calls to user functions (which may
read globals and any address-taken variable); returns keep globals
live, since callers and later calls observe them.

Used by dead-store elimination (:mod:`repro.opt.dse`): a store to a
non-escaping local that is dead immediately afterwards can be removed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from ..ir.builder import BUILTINS
from ..ir.cfg import iter_rpo
from ..ir.function import BasicBlock, IRFunction, IRModule
from ..ir.instructions import (
    AddrOf,
    Call,
    Instruction,
    Load,
    LoadIndirect,
    Return,
    Store,
    StoreIndirect,
    Variable,
)


class VariableLiveness:
    """Solves liveness for one function and answers point queries."""

    def __init__(self, fn: IRFunction, module: IRModule):
        self._fn = fn
        self._globals = frozenset(module.globals)
        self._everything = frozenset(fn.frame_variables) | self._globals
        address_taken: Set[Variable] = set()
        for other in module.functions:
            for instruction in other.instructions():
                if isinstance(instruction, AddrOf):
                    address_taken.add(instruction.var)
        self._address_taken = frozenset(address_taken)
        self._live_out: Dict[str, FrozenSet[Variable]] = {}
        self._solve()

    # -- transfer -----------------------------------------------------------

    def _gen(self, instruction: Instruction) -> FrozenSet[Variable]:
        if isinstance(instruction, Load):
            return frozenset({instruction.var})
        if isinstance(instruction, LoadIndirect):
            if instruction.may_alias:
                return frozenset(instruction.may_alias)
            return self._everything
        if isinstance(instruction, Call):
            if instruction.callee in BUILTINS:
                return frozenset()
            return self._globals | (self._address_taken & self._everything)
        if isinstance(instruction, Return):
            return self._globals
        return frozenset()

    @staticmethod
    def _kills(instruction: Instruction) -> FrozenSet[Variable]:
        if isinstance(instruction, Store):
            return frozenset({instruction.var})
        if isinstance(instruction, StoreIndirect):
            aliases = instruction.may_alias
            if len(aliases) == 1 and not aliases[0].is_array:
                return frozenset(aliases)
        return frozenset()

    def _transfer(
        self, block: BasicBlock, live: FrozenSet[Variable]
    ) -> FrozenSet[Variable]:
        current = set(live)
        for instruction in reversed(block.instructions):
            current -= self._kills(instruction)
            current |= self._gen(instruction)
        return frozenset(current)

    # -- fixpoint --------------------------------------------------------------

    def _solve(self) -> None:
        order = list(iter_rpo(self._fn))
        for block in order:
            self._live_out[block.label] = frozenset()
        changed = True
        while changed:
            changed = False
            for block in reversed(order):
                live_out: Set[Variable] = set()
                for succ in block.succs:
                    live_out |= self._transfer(
                        succ, self._live_out[succ.label]
                    )
                frozen = frozenset(live_out)
                if frozen != self._live_out[block.label]:
                    self._live_out[block.label] = frozen
                    changed = True

    # -- queries -----------------------------------------------------------------

    def live_after(self, block_label: str, index: int) -> FrozenSet[Variable]:
        """Variables live immediately *after* ``block[index]``."""
        block = self._fn.block(block_label)
        current = set(self._live_out[block_label])
        for position in range(len(block.instructions) - 1, index, -1):
            instruction = block.instructions[position]
            current -= self._kills(instruction)
            current |= self._gen(instruction)
        return frozenset(current)

    def live_before(self, block_label: str, index: int) -> FrozenSet[Variable]:
        """Variables live immediately *before* ``block[index]``."""
        block = self._fn.block(block_label)
        after = set(self.live_after(block_label, index))
        instruction = block.instructions[index]
        after -= self._kills(instruction)
        after |= self._gen(instruction)
        return frozenset(after)
