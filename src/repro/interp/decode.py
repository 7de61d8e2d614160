"""The interpreter's pre-decoded form of a finalized module.

The interpreter does not walk IR instructions.  On a module's first
run each function is decoded, once, into per-block arrays of
operations whose operands are already resolved:

* registers and immediates become slots of one list per frame; a new
  frame copies its function's template list, in which every immediate
  already sits in its slot;
* globals become absolute addresses and locals frame offsets, resolved
  the way :meth:`MemoryMap.address_of` does — globals first, then the
  first frame that owns the variable;
* each binary operator gets its own opcode (``/`` and ``%`` keep C
  truncation), and relational operators become ``operator.lt``-style
  functions;
* callees and branch/jump targets become direct references to decoded
  functions and blocks.

A decoded :class:`Block` is a run of straight-line operations (its
``body``) ended by the one operation that moves control (its
``tail``): the IR block's terminator, or a call to a user function,
which splits the IR block so the caller resumes in a continuation
block.  Every operation is a tuple ``(opcode, instruction, ...)``; it
keeps its :class:`~repro.ir.instructions.Instruction`, which is what
observers receive.

Decoding also checks that every register use is dominated by a
definition (the IR verifier's use-def rule), so a slot is never read
before it is written and no placeholder can reach memory or an output.

The decoded form is cached on the module by :func:`decoded_functions`.
:meth:`~repro.ir.function.IRModule.finalize` drops it, because the opt
pipeline re-finalizes modules in place, and pickling skips it, so a run
never changes a program's pickled bytes.  Decoding is pure and its
result is published with one attribute store: two threads decoding the
same module at once both get a correct form.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Tuple

from ..ir.dominators import DominatorTree
from ..ir.function import IRFunction, IRModule
from ..ir.instructions import (
    AddrOf,
    BinOp,
    Call,
    Cmp,
    CondBranch,
    Const,
    Jump,
    Load,
    LoadIndirect,
    Operand,
    Reg,
    RelOp,
    Return,
    Store,
    StoreIndirect,
    UnOp,
    Variable,
    defined_reg,
    used_regs,
)
from ..lang.errors import ReproError
from ..runtime.events import BranchEvent, CallEvent, ReturnEvent
from .state import MemoryMap


class InterpreterError(ReproError):
    """Structural problem (bad module, missing entry), not a program fault."""


# Body opcodes, in the order the interpreter tests them (most frequent
# first in the workload suite).
LOAD_LOCAL = 0  # (op, insn, dest, offset)
ADD = 1  # (op, insn, dest, lhs, rhs)
ADDR_LOCAL = 2  # (op, insn, dest, offset)
LOAD_INDIRECT = 3  # (op, insn, dest, addr)
EMIT = 4  # (op, insn, src)
STORE_LOCAL = 5  # (op, insn, offset, src)
READ = 6  # (op, insn, dest, index in the IR block)
LOAD_GLOBAL = 7  # (op, insn, dest, address)
STORE_INDIRECT = 8  # (op, insn, addr, src)
STORE_GLOBAL = 9  # (op, insn, address, src)
SUB = 10  # (op, insn, dest, lhs, rhs)
MUL = 11  # (op, insn, dest, lhs, rhs)
DIV = 12  # (op, insn, dest, lhs, rhs, index in the IR block)
MOD = 13  # (op, insn, dest, lhs, rhs, index in the IR block)
NEG = 14  # (op, insn, dest, src)
NOT = 15  # (op, insn, dest, src)
CMP = 16  # (op, insn, dest, relation, lhs, rhs)
SET = 17  # (op, insn, dest, value): Const, and AddrOf of a global

# Tail opcodes.
BRANCH = 20  # (op, insn, lhs, rhs, relation, taken block, fallthrough
#              block, taken event, fallthrough event, taken trace
#              entry, fallthrough trace entry)
JUMP = 21  # (op, insn, target block)
CALL = 22  # (op, insn, callee, argument slots, dest, continuation)
RETURN = 23  # (op, insn, value slot or None)

_RELATIONS = {
    RelOp.LT: operator.lt,
    RelOp.LE: operator.le,
    RelOp.GT: operator.gt,
    RelOp.GE: operator.ge,
    RelOp.EQ: operator.eq,
    RelOp.NE: operator.ne,
}

_BINOPS = {"+": ADD, "-": SUB, "*": MUL, "/": DIV, "%": MOD}

class Block:
    """Straight-line operations plus the one that moves control.

    ``start`` is the index, in the IR block named ``label``, of the
    first body operation — with an operation's position in the body it
    gives the frame's resume index that ``tamper_site`` reports.
    ``steps`` counts the body and the tail.
    """

    __slots__ = ("label", "start", "body", "tail", "steps")

    def __init__(self, label: str, start: int) -> None:
        self.label = label
        self.start = start
        self.body: List[tuple] = []
        self.tail: tuple = ()
        self.steps = 1

    def rest(self, done: int) -> "Block":
        """The same block with its first ``done`` body operations run."""
        block = Block(self.label, self.start + done)
        block.body = self.body[done:]
        block.tail = self.tail
        block.steps = self.steps - done
        return block


class DecodedFunction:
    """One function's blocks, frame geometry and register template."""

    __slots__ = (
        "name",
        "entry",
        "template",
        "frame_size",
        "param_offsets",
        "call_event",
        "return_event",
    )

    def __init__(self, fn: IRFunction, memory: MemoryMap) -> None:
        self.name = fn.name
        self.entry: Optional[Block] = None
        self.template: List[Optional[int]] = []
        self.frame_size = memory.frame_size(fn.name)
        self.param_offsets: Tuple[int, ...] = ()
        # Events are immutable, so one object per function serves
        # every activation.
        self.call_event = CallEvent(fn.name)
        self.return_event = ReturnEvent(fn.name)


def decoded_functions(module: IRModule) -> Dict[str, DecodedFunction]:
    """The module's decoded functions, decoding them on first use."""
    functions = module.__dict__.get("_decoded")
    if functions is None:
        if not module.finalized:
            raise InterpreterError("module must be finalized before execution")
        functions = _decode_module(module)
        module.__dict__["_decoded"] = functions
    return functions


def _decode_module(module: IRModule) -> Dict[str, DecodedFunction]:
    memory = MemoryMap(module)
    functions = {fn.name: DecodedFunction(fn, memory) for fn in module.functions}
    for fn in module.functions:
        _check_uses_defined(fn)
        _FunctionDecoder(fn, functions, memory).decode()
    return functions


def _check_uses_defined(fn: IRFunction) -> None:
    """Every register use must be dominated by one of its definitions.

    The IR verifier reports the same rule (IR108/IR109) as diagnostics,
    but only for functions whose structure checked out; a run needs it
    for every function it decodes.
    """
    definitions: Dict[Reg, List[Tuple[str, int]]] = {}
    for block in fn.blocks:
        for index, instruction in enumerate(block.instructions):
            reg = defined_reg(instruction)
            if reg is not None:
                definitions.setdefault(reg, []).append((block.label, index))
    tree = DominatorTree(fn)
    for block in fn.blocks:
        for index, instruction in enumerate(block.instructions):
            for reg in used_regs(instruction):
                if not any(
                    index > def_index
                    if def_label == block.label
                    else tree.dominates(def_label, block.label)
                    for def_label, def_index in definitions.get(reg, ())
                ):
                    raise InterpreterError(
                        f"function {fn.name}, block {block.label}: {reg} "
                        "may be read before it is written"
                    )


class _FunctionDecoder:
    def __init__(
        self,
        fn: IRFunction,
        functions: Dict[str, DecodedFunction],
        memory: MemoryMap,
    ) -> None:
        self.fn = fn
        self.decoded = functions[fn.name]
        self.functions = functions
        self.memory = memory
        self.template = self.decoded.template
        #: The first decoded block of each IR block: jump targets.
        self.heads = {block.label: Block(block.label, 0) for block in fn.blocks}
        # Immediates are keyed by type too, so ``True`` and ``1`` keep
        # their own slots and an output shows the operand as written.
        self.slots: Dict[object, int] = {}
        self.discard: Optional[int] = None

    # -- operands ---------------------------------------------------------

    def slot(self, operand: Operand) -> int:
        if operand.__class__ is Reg:
            key, initial = operand, None
        else:
            key, initial = (operand.__class__, operand), operand
        index = self.slots.get(key)
        if index is None:
            index = self.slots[key] = len(self.template)
            self.template.append(initial)
        return index

    def dest(self, reg: Optional[Reg]) -> int:
        """A register's slot; a slot nobody reads for a dropped result."""
        if reg is not None:
            return self.slot(reg)
        if self.discard is None:
            self.discard = len(self.template)
            self.template.append(None)
        return self.discard

    def variable(self, var: Variable) -> Tuple[bool, int]:
        """``(is_global, address or frame offset)``."""
        address = self.memory.global_addresses.get(var)
        if address is not None:
            return True, address
        try:
            return False, self.memory.address_of(var, 0)
        except KeyError:
            raise InterpreterError(
                f"function {self.fn.name}: variable {var} has no frame"
            ) from None

    # -- blocks -----------------------------------------------------------

    def decode(self) -> None:
        fn = self.fn
        for block in fn.blocks:
            current = self.heads[block.label]
            for index, instruction in enumerate(block.instructions):
                op = self.operation(instruction, block.label, index)
                if op[0] < BRANCH:
                    current.body.append(op)
                    continue
                current.tail = op
                current.steps = len(current.body) + 1
                if op[0] != CALL:
                    break
                current = op[5]
            else:
                raise InterpreterError(
                    f"function {fn.name}: block {block.label} has no terminator"
                )
        self.decoded.entry = self.heads[fn.entry.label]
        self.decoded.param_offsets = tuple(
            self.variable(param)[1] for param in fn.params
        )

    def operation(self, instruction, label: str, index: int) -> tuple:
        cls = instruction.__class__
        if cls is Load or cls is Store or cls is AddrOf:
            is_global, where = self.variable(instruction.var)
            if cls is Load:
                code = LOAD_GLOBAL if is_global else LOAD_LOCAL
                return (code, instruction, self.slot(instruction.dest), where)
            if cls is Store:
                code = STORE_GLOBAL if is_global else STORE_LOCAL
                return (code, instruction, where, self.slot(instruction.src))
            code = SET if is_global else ADDR_LOCAL
            return (code, instruction, self.slot(instruction.dest), where)
        if cls is BinOp:
            code = _BINOPS.get(instruction.op)
            if code is None:
                raise InterpreterError(f"unknown binop {instruction.op!r}")
            op = (
                code,
                instruction,
                self.slot(instruction.dest),
                self.slot(instruction.lhs),
                self.slot(instruction.rhs),
            )
            return op + (index,) if code in (DIV, MOD) else op
        if cls is LoadIndirect:
            return (
                LOAD_INDIRECT,
                instruction,
                self.slot(instruction.dest),
                self.slot(instruction.addr),
            )
        if cls is StoreIndirect:
            return (
                STORE_INDIRECT,
                instruction,
                self.slot(instruction.addr),
                self.slot(instruction.src),
            )
        if cls is Const:
            return (SET, instruction, self.slot(instruction.dest), instruction.value)
        if cls is UnOp:
            code = NEG if instruction.op == "-" else NOT
            return (
                code,
                instruction,
                self.slot(instruction.dest),
                self.slot(instruction.src),
            )
        if cls is Cmp:
            return (
                CMP,
                instruction,
                self.slot(instruction.dest),
                _RELATIONS[instruction.op],
                self.slot(instruction.lhs),
                self.slot(instruction.rhs),
            )
        if cls is Call:
            return self.call(instruction, label, index)
        if cls is CondBranch:
            pc = instruction.address
            name = self.fn.name
            return (
                BRANCH,
                instruction,
                self.slot(instruction.lhs),
                self.slot(instruction.rhs),
                _RELATIONS[instruction.op],
                self.target(instruction.taken),
                self.target(instruction.fallthrough),
                BranchEvent(name, pc, True),
                BranchEvent(name, pc, False),
                (pc, True),
                (pc, False),
            )
        if cls is Jump:
            return (JUMP, instruction, self.target(instruction.target))
        if cls is Return:
            value = instruction.value
            return (
                RETURN,
                instruction,
                None if value is None else self.slot(value),
            )
        raise InterpreterError(f"unknown instruction {instruction!r}")

    def call(self, instruction: Call, label: str, index: int) -> tuple:
        callee = instruction.callee
        if callee == "read_int":
            return (READ, instruction, self.dest(instruction.dest), index)
        if callee == "emit":
            return (EMIT, instruction, self.slot(instruction.args[0]))
        target = self.functions.get(callee)
        if target is None:
            raise InterpreterError(
                f"function {self.fn.name} calls unknown function {callee!r}"
            )
        return (
            CALL,
            instruction,
            target,
            tuple(self.slot(arg) for arg in instruction.args),
            self.dest(instruction.dest),
            Block(label, index + 1),
        )

    def target(self, label: str) -> Block:
        block = self.heads.get(label)
        if block is None:
            raise InterpreterError(
                f"function {self.fn.name}: no block {label!r}"
            )
        return block
