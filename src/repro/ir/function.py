"""IR containers: basic blocks, functions, and modules.

A module is *finalized* before use: finalization assigns every
instruction a code address (4 bytes apart, functions laid out in
definition order), computes CFG edges, and freezes block order.  The
address of a ``CondBranch`` is the PC the IPDS hash tables are keyed by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..lang.errors import ReproError
from .instructions import (
    CondBranch,
    Instruction,
    Jump,
    Return,
    Terminator,
    Variable,
)

#: Size of one encoded instruction in bytes (for PC assignment).
INSTRUCTION_BYTES = 4

#: Address where the code segment starts.
CODE_BASE = 0x0040_0000


class IRError(ReproError):
    """Structural error in the IR (verifier failure, bad lookup, ...)."""


@dataclass
class BasicBlock:
    """A straight-line instruction sequence ending in one terminator."""

    label: str
    instructions: List[Instruction] = field(default_factory=list)
    preds: List["BasicBlock"] = field(default_factory=list, repr=False)
    succs: List["BasicBlock"] = field(default_factory=list, repr=False)

    @property
    def terminator(self) -> Terminator:
        if not self.instructions or not isinstance(self.instructions[-1], Terminator):
            raise IRError(f"block {self.label} has no terminator")
        return self.instructions[-1]

    @property
    def body(self) -> List[Instruction]:
        """Instructions excluding the terminator."""
        if self.instructions and isinstance(self.instructions[-1], Terminator):
            return self.instructions[:-1]
        return list(self.instructions)

    def ends_in_cond_branch(self) -> bool:
        return bool(self.instructions) and isinstance(
            self.instructions[-1], CondBranch
        )

    def __str__(self) -> str:
        return self.label


@dataclass
class IRFunction:
    """One function: parameters, frame variables, and its CFG."""

    name: str
    params: List[Variable]
    blocks: List[BasicBlock] = field(default_factory=list)
    locals: List[Variable] = field(default_factory=list)
    returns_value: bool = True

    def __post_init__(self) -> None:
        self._blocks_by_label: Dict[str, BasicBlock] = {}

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block(self, label: str) -> BasicBlock:
        try:
            return self._blocks_by_label[label]
        except KeyError:
            raise IRError(f"function {self.name}: no block {label!r}") from None

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self._blocks_by_label:
            raise IRError(f"duplicate block label {block.label!r}")
        self.blocks.append(block)
        self._blocks_by_label[block.label] = block
        return block

    @property
    def frame_variables(self) -> List[Variable]:
        """All memory-resident variables in this function's frame."""
        return self.params + self.locals

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    def cond_branches(self) -> List[CondBranch]:
        """All conditional branches, in block order."""
        return [
            block.terminator
            for block in self.blocks
            if block.ends_in_cond_branch()
        ]

    def compute_edges(self) -> None:
        """(Re)compute predecessor/successor lists from terminators."""
        for block in self.blocks:
            block.preds = []
            block.succs = []
        for block in self.blocks:
            terminator = block.terminator
            if isinstance(terminator, Jump):
                targets = [terminator.target]
            elif isinstance(terminator, CondBranch):
                # Taken edge first, by convention.
                targets = [terminator.taken, terminator.fallthrough]
            elif isinstance(terminator, Return):
                targets = []
            else:  # pragma: no cover - defensive
                raise IRError(f"unknown terminator {terminator!r}")
            for label in targets:
                succ = self.block(label)
                block.succs.append(succ)
                succ.preds.append(block)

    def drop_empty_blocks(self) -> int:
        """Remove empty blocks left over from lowering.

        Lowering only leaves a block empty when nothing ever targets it
        (e.g. the join block of a constant-folded condition), so this is
        safe to run before edges are computed.
        """
        empty = [b for b in self.blocks if not b.instructions]
        if empty:
            self.blocks = [b for b in self.blocks if b.instructions]
            self._blocks_by_label = {b.label: b for b in self.blocks}
        return len(empty)

    def remove_unreachable_blocks(self) -> int:
        """Drop blocks not reachable from entry; returns removal count."""
        reachable = set()
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if block.label in reachable:
                continue
            reachable.add(block.label)
            stack.extend(succ for succ in block.succs)
        removed = [b for b in self.blocks if b.label not in reachable]
        if removed:
            self.blocks = [b for b in self.blocks if b.label in reachable]
            self._blocks_by_label = {b.label: b for b in self.blocks}
            self.compute_edges()
        return len(removed)

    def block_of(self, instruction: Instruction) -> BasicBlock:
        """The block containing ``instruction`` (identity comparison)."""
        for block in self.blocks:
            for candidate in block.instructions:
                if candidate is instruction:
                    return block
        raise IRError(f"instruction {instruction} not in function {self.name}")


@dataclass
class IRModule:
    """A whole program: globals plus functions, with assigned addresses.

    A run caches the interpreter's decoded form of a finalized module
    in ``_decoded`` (see :mod:`repro.interp.decode`).  It is derived
    data: :meth:`finalize` drops it, and pickling and copying skip it.
    """

    functions: List[IRFunction] = field(default_factory=list)
    globals: List[Variable] = field(default_factory=list)
    global_inits: Dict[Variable, int] = field(default_factory=dict)
    finalized: bool = False

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_decoded", None)
        return state

    def function(self, name: str) -> IRFunction:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise IRError(f"no function named {name!r}")

    def has_function(self, name: str) -> bool:
        return any(fn.name == name for fn in self.functions)

    def finalize(self) -> None:
        """Assign PCs, compute CFG edges, and prune unreachable blocks."""
        address = CODE_BASE
        for fn in self.functions:
            fn.drop_empty_blocks()
            fn.compute_edges()
            fn.remove_unreachable_blocks()
            for instruction in fn.instructions():
                instruction.address = address
                address += INSTRUCTION_BYTES
        self.finalized = True
        # A decoded form built before this call describes the old code.
        self.__dict__.pop("_decoded", None)

    def function_extent(self, name: str) -> Tuple[int, int]:
        """(first, last) instruction addresses of a finalized function."""
        fn = self.function(name)
        addresses = [i.address for i in fn.instructions()]
        if not addresses or min(addresses) < 0:
            raise IRError(f"function {name!r} is not finalized")
        return min(addresses), max(addresses)

    def instruction_at(self, address: int) -> Optional[Instruction]:
        """Look up an instruction by PC (linear scan; test helper)."""
        for fn in self.functions:
            for instruction in fn.instructions():
                if instruction.address == address:
                    return instruction
        return None
