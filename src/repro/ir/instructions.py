"""Three-address IR instruction set.

The IR makes every access to a named variable an explicit ``Load`` or
``Store``: named variables are *memory-resident* (they live in the
simulated data memory and are the targets of tampering attacks), while
``Reg`` temporaries model processor registers, which the paper's attack
model treats as safe.  Conditional branches carry their comparison
(``lhs RELOP rhs``) directly so the correlation analysis can map a
branch direction to a value range without a separate compare
instruction.

Registers are written exactly once by construction of the lowering pass
(single-assignment temporaries), which is what lets the branch-range
inference walk a register's defining chain unambiguously.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union


@dataclass(frozen=True)
class Reg:
    """A virtual register (single-assignment temporary)."""

    index: int

    def __str__(self) -> str:
        return f"t{self.index}"


class VarKind(enum.Enum):
    """Storage classes for memory-resident variables."""

    GLOBAL = "global"
    LOCAL = "local"
    PARAM = "param"


@dataclass(frozen=True)
class Variable:
    """A memory-resident variable: a global, local, or parameter.

    ``size`` is in words (scalars and pointers take one word; arrays
    take their element count).  ``uid`` disambiguates shadowed names.

    Variables key every abstract environment, so the hash is computed
    once, when the variable is built.  It is never pickled: string
    hashes are salted per process, so a loaded variable recomputes it.
    Equality stays field by field.
    """

    name: str
    kind: VarKind
    size: int
    uid: int
    is_pointer: bool = False
    is_array: bool = False
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fields = (
            self.name,
            self.kind,
            self.size,
            self.uid,
            self.is_pointer,
            self.is_array,
        )
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_hash"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def __str__(self) -> str:
        prefix = {"global": "@", "local": "%", "param": "%"}[self.kind.value]
        return f"{prefix}{self.name}.{self.uid}"


#: An instruction operand: a register or an immediate integer.
Operand = Union[Reg, int]


class RelOp(enum.Enum):
    """Relational operators usable in conditional branches."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="

    def negate(self) -> "RelOp":
        """The operator describing the branch's not-taken outcome."""
        return _NEGATIONS[self]

    def swap(self) -> "RelOp":
        """The operator with operands exchanged (``a < b`` ⇔ ``b > a``)."""
        return _SWAPS[self]

    def evaluate(self, lhs: int, rhs: int) -> bool:
        return _EVALS[self](lhs, rhs)


_NEGATIONS = {
    RelOp.LT: RelOp.GE,
    RelOp.LE: RelOp.GT,
    RelOp.GT: RelOp.LE,
    RelOp.GE: RelOp.LT,
    RelOp.EQ: RelOp.NE,
    RelOp.NE: RelOp.EQ,
}

_SWAPS = {
    RelOp.LT: RelOp.GT,
    RelOp.LE: RelOp.GE,
    RelOp.GT: RelOp.LT,
    RelOp.GE: RelOp.LE,
    RelOp.EQ: RelOp.EQ,
    RelOp.NE: RelOp.NE,
}

_EVALS = {
    RelOp.LT: lambda a, b: a < b,
    RelOp.LE: lambda a, b: a <= b,
    RelOp.GT: lambda a, b: a > b,
    RelOp.GE: lambda a, b: a >= b,
    RelOp.EQ: lambda a, b: a == b,
    RelOp.NE: lambda a, b: a != b,
}


# ----------------------------------------------------------------------
# Instructions
# ----------------------------------------------------------------------


@dataclass
class Instruction:
    """Base class.  ``address`` is the code address (PC) assigned when a
    module is finalized; branches are identified by PC at runtime."""

    address: int = field(default=-1, init=False, compare=False)


@dataclass
class Const(Instruction):
    """``dest = value``"""

    dest: Reg
    value: int

    def __str__(self) -> str:
        return f"{self.dest} = {self.value}"


@dataclass
class BinOp(Instruction):
    """``dest = lhs op rhs`` for ``+ - * / %``.

    Division and modulo follow C semantics (truncation toward zero).
    """

    dest: Reg
    op: str
    lhs: Operand
    rhs: Operand

    def __str__(self) -> str:
        return f"{self.dest} = {self.lhs} {self.op} {self.rhs}"


@dataclass
class UnOp(Instruction):
    """``dest = op src`` for ``-`` (negate) and ``!`` (logical not)."""

    dest: Reg
    op: str
    src: Operand

    def __str__(self) -> str:
        return f"{self.dest} = {self.op}{self.src}"


@dataclass
class Cmp(Instruction):
    """``dest = (lhs relop rhs)`` materialized as 0/1."""

    dest: Reg
    op: RelOp
    lhs: Operand
    rhs: Operand

    def __str__(self) -> str:
        return f"{self.dest} = {self.lhs} {self.op.value} {self.rhs}"


@dataclass
class Load(Instruction):
    """``dest = M[var]`` — direct load of a scalar variable."""

    dest: Reg
    var: Variable

    def __str__(self) -> str:
        return f"{self.dest} = load {self.var}"


@dataclass
class Store(Instruction):
    """``M[var] = src`` — direct store to a scalar variable."""

    var: Variable
    src: Operand

    def __str__(self) -> str:
        return f"store {self.var}, {self.src}"


@dataclass
class AddrOf(Instruction):
    """``dest = &var`` — materialize a variable's data address."""

    dest: Reg
    var: Variable

    def __str__(self) -> str:
        return f"{self.dest} = addr {self.var}"


@dataclass
class LoadIndirect(Instruction):
    """``dest = M[addr]`` — load through a computed address.

    ``may_alias`` is filled in by alias analysis with the variables this
    access might touch (empty means "unknown / anything").
    """

    dest: Reg
    addr: Reg
    may_alias: Tuple[Variable, ...] = ()

    def __str__(self) -> str:
        return f"{self.dest} = load [{self.addr}]"


@dataclass
class StoreIndirect(Instruction):
    """``M[addr] = src`` — store through a computed address."""

    addr: Reg
    src: Operand
    may_alias: Tuple[Variable, ...] = ()

    def __str__(self) -> str:
        return f"store [{self.addr}], {self.src}"


@dataclass
class Call(Instruction):
    """``dest = callee(args...)`` — user function or builtin."""

    dest: Optional[Reg]
    callee: str
    args: List[Operand]

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        prefix = f"{self.dest} = " if self.dest is not None else ""
        return f"{prefix}call {self.callee}({args})"


# -- terminators -------------------------------------------------------


@dataclass
class Terminator(Instruction):
    """Base class for block-ending instructions."""


@dataclass
class Jump(Terminator):
    """Unconditional transfer to ``target`` (a block label)."""

    target: str

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass
class CondBranch(Terminator):
    """``if (lhs relop rhs) goto taken else goto fallthrough``.

    This is the instruction the IPDS monitors.  The *taken* direction is
    the condition-true direction.
    """

    lhs: Reg
    op: RelOp
    rhs: Operand
    taken: str
    fallthrough: str

    def __str__(self) -> str:
        return (
            f"br {self.lhs} {self.op.value} {self.rhs}"
            f" ? {self.taken} : {self.fallthrough}"
        )


@dataclass
class Return(Terminator):
    """Return to caller, optionally with a value."""

    value: Optional[Operand] = None

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"


def defined_reg(instruction: Instruction) -> Optional[Reg]:
    """The register an instruction writes, or None."""
    dest = getattr(instruction, "dest", None)
    return dest if isinstance(dest, Reg) else None


def used_regs(instruction: Instruction) -> List[Reg]:
    """All registers an instruction reads."""
    regs: List[Reg] = []
    for attr in ("lhs", "rhs", "src", "addr", "value"):
        value = getattr(instruction, attr, None)
        if isinstance(value, Reg):
            regs.append(value)
    if isinstance(instruction, Call):
        regs.extend(a for a in instruction.args if isinstance(a, Reg))
    return regs
