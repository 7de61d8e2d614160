"""Static tamper-detectability prover (pass: detectability).

``repro predict`` answers Figure 7's question *before* running a
campaign: for a tamper point — a variable, a value region, and the
program point where the corruption lands — will the IPDS provably
alarm, possibly alarm, or provably stay silent?

Verdicts
========

``DET801 PROVEN_DETECTED``
    Every continuation from the tamper point raises an alarm.  Proved
    by an exhaustive *must-alarm walk*: starting from the landing
    point with the clean prefix's guaranteed BSV knowledge (a forward
    all-paths must dataflow over the BAT action tables), the prover
    walks every CFG path, forcing the direction of branches that test
    the corrupted variable (its memory now holds the tampered value)
    and crediting an alarm exactly where the runtime would — a
    BCV-checked branch whose tracked-definite expectation the walked
    direction contradicts.  A path ends in ``alarm`` or *escapes*
    (returns, may fault, may loop, or calls a function the prover
    cannot bound); ``DET801`` holds only when every path alarms.

``DET803 PROVEN_UNDETECTED``
    No continuation can alarm.  Proved by a module-wide dependence
    closure: if no conditional branch transitively depends on the
    variable's memory (through registers, direct and indirect
    accesses, calls and returns), the attacked trace commits exactly
    the clean run's branch events — and the clean run is alarm-free by
    the audited zero-false-positive guarantee.  Faults the corruption
    introduces (a tampered divisor) only *truncate* the trace, and a
    prefix of an alarm-free event stream is alarm-free.

``DET802 POSSIBLY_DETECTED``
    Everything else, with the first escaping path as a witness.

Proof obligations and the progress assumption
=============================================

``DET801`` additionally assumes the execution *progresses* to the
promised alarm: the walk escapes on any possible fault (unbounded
division), any call to a function not proved total (acyclic CFG and
call graph, no faultable division), and any cycle in the walked state
graph — but a run that exhausts the interpreter's global step or
call-depth budget before reaching the alarming branch would still
escape detection.  ``DESIGN.md`` §4h states the obligation precisely;
the seeded-campaign soundness harness
(:mod:`repro.staticcheck.detectvalidate`) is the empirical gate that
this never occurs on the workload registry.

Per-opt facts consumed: the BAT/BCV tables themselves (richer at opt
2/3, so statuses are definite more often and ``DET801`` grows), and at
opt 3 the builder's entry-seeded feasible-path propagation
(:func:`repro.analysis.feasible.entry_reachability`) prunes
clean-infeasible edges from the must dataflow — the clean prefix can
only have travelled feasible edges, so the prover starts the walk with
strictly more BSV knowledge.  The post-tamper walk itself never prunes:
attacked runs take clean-infeasible edges (that is what gets them
caught).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..analysis.branch_info import BranchFacts, analyze_branches
from ..analysis.defs import DefinitionMap
from ..analysis.feasible import entry_reachability
from ..analysis.purity import PurityResult
from ..correlation.actions import BranchAction
from ..correlation.tables import ActionEntry, FunctionTables
from ..ir.builder import BUILTINS
from ..ir.function import IRFunction
from ..ir.instructions import (
    BinOp,
    Call,
    CondBranch,
    Instruction,
    Jump,
    Load,
    LoadIndirect,
    Reg,
    Return,
    Store,
    StoreIndirect,
    Variable,
)
from .diagnostics import Diagnostic, DiagnosticSink

PASS_NAME = "detectability"

#: Walk state budget per tamper point; exceeding it escapes
#: (``state-cap``) rather than claiming anything.
MAX_WALK_STATES = 4096

#: Verdict names (the diagnostic codes double as stable identifiers).
PROVEN_DETECTED = "DET801"
POSSIBLY_DETECTED = "DET802"
PROVEN_UNDETECTED = "DET803"

#: One site frame: (function, block label, instruction index) — the
#: resume point of one activation when the corruption lands.
SiteFrame = Tuple[str, str, int]

#: BSV knowledge as the paper's two bits per slot (§5.1): ``(known,
#: taken)``, where bit ``s`` of ``known`` is set when slot ``s`` is
#: definite and bit ``s`` of ``taken`` when it is TAKEN.  ``taken`` is
#: always a subset of ``known``, so equal knowledge is an equal pair.
Bsv = Tuple[int, int]

#: A fresh frame: every slot UNKNOWN.
_UNKNOWN: Bsv = (0, 0)


# ----------------------------------------------------------------------
# Callee summaries: may-write sets and totality
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CalleeFacts:
    """What a call site must assume about one callee."""

    #: Variables the callee (transitively) may store to; meaningless
    #: when ``clobbers_all``.
    may_write: FrozenSet[Variable]
    clobbers_all: bool
    #: Proved to return without faulting on every input: acyclic CFG
    #: and call graph below it, and no division whose divisor is not a
    #: nonzero constant.  Calls to non-total callees escape the walk.
    total: bool

    def may_write_var(self, var: Variable) -> bool:
        return self.clobbers_all or var in self.may_write


def _cfg_successors(block_instructions: Sequence[Instruction]) -> List[str]:
    terminator = block_instructions[-1]
    if isinstance(terminator, CondBranch):
        return [terminator.taken, terminator.fallthrough]
    if isinstance(terminator, Jump):
        return [terminator.target]
    return []


def _has_cycle(
    roots: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Hashable]],
) -> bool:
    """Iterative three-color DFS: is a cycle reachable from ``roots``?
    Each node's successors are computed once, when it is pushed."""
    done: Set[Hashable] = set()
    for root in roots:
        if root in done:
            continue
        on_path = {root}
        stack = [(root, iter(successors(root)))]
        while stack:
            node, pending = stack[-1]
            for nxt in pending:
                if nxt in on_path:
                    return True
                if nxt not in done:
                    on_path.add(nxt)
                    stack.append((nxt, iter(successors(nxt))))
                    break
            else:
                on_path.remove(node)
                done.add(node)
                stack.pop()
    return False


def _faultable_division(instruction: Instruction) -> bool:
    return (
        isinstance(instruction, BinOp)
        and instruction.op in ("/", "%")
        and (isinstance(instruction.rhs, Reg) or instruction.rhs == 0)
    )


def compute_callee_facts(
    functions: Sequence[IRFunction], purity: PurityResult
) -> Dict[str, CalleeFacts]:
    """Per-function facts a walk needs at call sites.

    ``total`` is a greatest fixpoint: assume total, strike functions
    with a CFG cycle or a faultable division, then propagate
    non-totality up the call graph (recursion strikes itself via the
    cycle this creates).
    """
    total: Dict[str, bool] = {}
    callees: Dict[str, Set[str]] = {}
    for fn in functions:
        ok = not _has_cycle(
            [block.label for block in fn.blocks],
            lambda label: _cfg_successors(fn.block(label).instructions),
        )
        called: Set[str] = set()
        for instruction in fn.instructions():
            if _faultable_division(instruction):
                ok = False
            elif isinstance(instruction, Call):
                if instruction.callee not in BUILTINS:
                    called.add(instruction.callee)
        total[fn.name] = ok
        callees[fn.name] = called
    changed = True
    while changed:
        changed = False
        for name, called in callees.items():
            if total[name] and any(not total.get(c, False) for c in called):
                total[name] = False
                changed = True
    facts: Dict[str, CalleeFacts] = {}
    for fn in functions:
        effect = purity.effect_of(fn.name)
        facts[fn.name] = CalleeFacts(
            may_write=effect.variables,
            clobbers_all=effect.clobbers_all,
            total=total[fn.name],
        )
    return facts


# ----------------------------------------------------------------------
# Branch relevance: which variables can influence any branch at all
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BranchRelevance:
    """Module-wide dependence closure result.

    ``everything`` means some branch depends on memory the analysis
    cannot name (an indirect read with no alias bound) — every
    variable must then be treated as branch-relevant.
    """

    variables: FrozenSet[Variable]
    everything: bool

    def relevant(self, var: Variable) -> bool:
        return self.everything or var in self.variables


#: Sentinel inside dependence sets: "unknown memory".
_ANY = "<any-memory>"

_Dep = FrozenSet[object]


def compute_branch_relevance(
    functions: Sequence[IRFunction],
) -> BranchRelevance:
    """Flow-insensitive dependence closure from every memory variable
    to every conditional branch operand.

    Each register and each variable's memory accumulates the set of
    *source* variables its value may transitively derive from (a store
    makes the target depend on the source's set; an indirect store
    through an untracked address poisons everything).  A variable
    absent from every branch's closure provably cannot change any
    branch outcome — the ``DET803`` premise.
    """
    reg_dep: Dict[Tuple[str, Reg], _Dep] = {}
    mem_dep: Dict[Variable, _Dep] = {}
    #: Dependencies that may have been written to *any* address.
    everywhere: Set[object] = set()
    relevant: Set[object] = set()

    for fn in functions:
        for var in set(fn.frame_variables):
            mem_dep[var] = frozenset({var})

    return_regs: Dict[str, List[Tuple[str, Reg]]] = {}
    for fn in functions:
        sources: List[Tuple[str, Reg]] = []
        for block in fn.blocks:
            terminator = block.instructions[-1]
            if isinstance(terminator, Return) and isinstance(
                terminator.value, Reg
            ):
                sources.append((fn.name, terminator.value))
        return_regs[fn.name] = sources

    def rdep(fn_name: str, operand: object) -> _Dep:
        if isinstance(operand, Reg):
            return reg_dep.get((fn_name, operand), frozenset())
        return frozenset()

    def mdep(var: Variable) -> _Dep:
        existing = mem_dep.get(var)
        if existing is None:
            existing = mem_dep[var] = frozenset({var})
        return existing

    changed = True
    while changed:
        changed = False

        def absorb_reg(fn_name: str, reg: Reg, extra: _Dep) -> None:
            nonlocal changed
            key = (fn_name, reg)
            current = reg_dep.get(key, frozenset())
            union = current | extra
            if union != current:
                reg_dep[key] = union
                changed = True

        def absorb_mem(var: Variable, extra: _Dep) -> None:
            nonlocal changed
            current = mdep(var)
            union = current | extra
            if union != current:
                mem_dep[var] = union
                changed = True

        def absorb_everywhere(extra: _Dep) -> None:
            nonlocal changed
            if not extra <= everywhere:
                everywhere.update(extra)
                changed = True

        for fn in functions:
            name = fn.name
            for instruction in fn.instructions():
                cls = instruction.__class__
                if cls is Load:
                    assert isinstance(instruction, Load)
                    absorb_reg(
                        name,
                        instruction.dest,
                        mdep(instruction.var) | frozenset(everywhere),
                    )
                elif cls is Store:
                    assert isinstance(instruction, Store)
                    absorb_mem(
                        instruction.var, rdep(name, instruction.src)
                    )
                elif cls is LoadIndirect:
                    assert isinstance(instruction, LoadIndirect)
                    deps = rdep(name, instruction.addr)
                    if instruction.may_alias:
                        for target in instruction.may_alias:
                            deps = deps | mdep(target)
                        deps = deps | frozenset(everywhere)
                    else:
                        deps = deps | frozenset({_ANY})
                    absorb_reg(name, instruction.dest, deps)
                elif cls is StoreIndirect:
                    assert isinstance(instruction, StoreIndirect)
                    deps = rdep(name, instruction.addr) | rdep(
                        name, instruction.src
                    )
                    if instruction.may_alias:
                        for target in instruction.may_alias:
                            absorb_mem(target, deps)
                    else:
                        absorb_everywhere(deps)
                elif cls is Call:
                    assert isinstance(instruction, Call)
                    if instruction.callee in BUILTINS:
                        continue  # read_int/emit touch no memory
                    callee_params = _params_of(functions, instruction.callee)
                    for param, arg in zip(callee_params, instruction.args):
                        absorb_mem(param, rdep(name, arg))
                    if instruction.dest is not None:
                        deps = frozenset()
                        for key in return_regs.get(instruction.callee, []):
                            deps = deps | reg_dep.get(key, frozenset())
                        absorb_reg(name, instruction.dest, deps)
                elif cls is CondBranch:
                    assert isinstance(instruction, CondBranch)
                    deps = rdep(name, instruction.lhs) | rdep(
                        name, instruction.rhs
                    )
                    if not deps <= relevant:
                        relevant.update(deps)
                        changed = True
                else:
                    dest = getattr(instruction, "dest", None)
                    if isinstance(dest, Reg):
                        deps = frozenset()
                        for attr in ("lhs", "rhs", "src"):
                            deps = deps | rdep(
                                name, getattr(instruction, attr, None)
                            )
                        if deps:
                            absorb_reg(name, dest, deps)

    return BranchRelevance(
        variables=frozenset(
            d for d in relevant if isinstance(d, Variable)
        ),
        everything=_ANY in relevant,
    )


def _params_of(
    functions: Sequence[IRFunction], name: str
) -> Sequence[Variable]:
    for fn in functions:
        if fn.name == name:
            return fn.params
    return ()


# ----------------------------------------------------------------------
# BSV knowledge: the meet and the one branch step
# ----------------------------------------------------------------------


def _apply(bsv: Bsv, actions: Tuple[ActionEntry, ...]) -> Bsv:
    """Fire one BAT list in order: a later write to a slot wins, and
    ``NC`` writes nothing."""
    known, taken = bsv
    for slot, action in actions:
        bit = 1 << slot
        if action is BranchAction.SET_T:
            known |= bit
            taken |= bit
        elif action is BranchAction.SET_NT:
            known |= bit
            taken &= ~bit
        elif action is BranchAction.SET_UN:
            known &= ~bit
            taken &= ~bit
    return known, taken


def _meet(a: Bsv, b: Bsv) -> Bsv:
    """Agree-or-UNKNOWN: a slot stays definite where both sides know
    it and agree on its direction."""
    known = a[0] & b[0] & ~(a[1] ^ b[1])
    return known, a[1] & known


def _branch_step(
    tables: FunctionTables, pc: int, bsv: Bsv
) -> Tuple[Optional[bool], Bsv, Bsv]:
    """One committed branch as the runtime sees it: the direction a
    checked branch's definite status expects (``None`` when unchecked
    or UNKNOWN), then the knowledge after its taken and not-taken
    actions fire."""
    plan = tables.branch_plan(pc)
    if plan is None:
        return None, bsv, bsv
    slot, checked, taken_actions, not_taken_actions = plan
    expected: Optional[bool] = None
    if checked and bsv[0] >> slot & 1:
        expected = bool(bsv[1] >> slot & 1)
    return expected, _apply(bsv, taken_actions), _apply(bsv, not_taken_actions)


# ----------------------------------------------------------------------
# Clean-prefix must dataflow: guaranteed BSV knowledge per block
# ----------------------------------------------------------------------


def must_bsv_states(
    fn: IRFunction,
    tables: FunctionTables,
    pruned_edges: FrozenSet[Tuple[str, bool]] = frozenset(),
) -> Dict[str, Bsv]:
    """All-paths-guaranteed BSV state at every block entry.

    Forward dataflow from the function entry (a fresh frame is
    all-UNKNOWN), firing the branch's BAT actions along each outgoing
    edge and *meeting* (agree-or-UNKNOWN) where paths join.  Two
    refinements, both valid for clean prefixes only:

    * zero-false-positives — a checked branch with a definite
      must-status cannot go the other way on a clean run (the audit
      passes independently re-prove this of the tables), so the
      contradicting edge contributes nothing;
    * ``pruned_edges`` (opt 3) — clean runs travel feasible edges only.

    The walk that *starts* from these states prunes nothing: tampered
    runs exist to violate both assumptions.
    """
    entry = fn.entry.label
    states: Dict[str, Bsv] = {entry: _UNKNOWN}
    worklist: List[str] = [entry]

    def merge(target: str, out_state: Bsv) -> None:
        current = states.get(target)
        if current is None:
            states[target] = out_state
            worklist.append(target)
            return
        met = _meet(current, out_state)
        if met != current:
            states[target] = met
            worklist.append(target)

    while worklist:
        label = worklist.pop()
        terminator = fn.block(label).instructions[-1]
        if isinstance(terminator, Jump):
            merge(terminator.target, states[label])
        elif isinstance(terminator, CondBranch):
            expected, after_taken, after_not_taken = _branch_step(
                tables, terminator.address, states[label]
            )
            for direction, target, after in (
                (True, terminator.taken, after_taken),
                (False, terminator.fallthrough, after_not_taken),
            ):
                if expected is not None and expected != direction:
                    continue  # clean runs cannot alarm (zero-FP)
                if (label, direction) in pruned_edges:
                    continue  # clean runs travel feasible edges only
                merge(target, after)
    for block in fn.blocks:
        states.setdefault(block.label, _UNKNOWN)
    return states


# ----------------------------------------------------------------------
# The must-alarm walk
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WalkResult:
    """What one walk from one tamper point decides about every path."""

    #: Every path alarms: no other terminal, no cycle, no state cap.
    must_alarm: bool
    #: Every path alarms or returns, none may write the variable, and
    #: there is no cycle or state cap — the condition an *outer* frame
    #: needs of the frames below it (an alarm is a catch; a return
    #: resumes the outer frame at its own walked point).
    clean_return: bool
    #: Branch decisions plus terminal reason of the first path, in the
    #: walk's LIFO order, that is not an alarm — the ``DET802``
    #: escaping-path witness; ``escape:state-cap`` or ``escape:loop``
    #: when no such path was popped, empty when ``must_alarm``.
    witness: Tuple[str, ...]


#: Walk state: (block, index, BSV knowledge, forcing alive).
_WalkState = Tuple[str, int, Bsv, bool]


@dataclass(frozen=True)
class _Expansion:
    """One state's single-step semantics: either a terminal or its
    outgoing edges, plus whether the straight-line scan to the block's
    terminator may write the tampered variable."""

    terminal: Optional[Tuple[str, str]]
    edges: Tuple[Tuple[str, _WalkState], ...]
    wrote: bool


class WalkGraph:
    """The product graph (CFG location × BSV knowledge × forcing bit)
    for one (function, variable, forced-outcome vector).

    Walks from different tamper points explore heavily overlapping
    regions of this graph — a workload's report asks for every block
    entry — so expansions are memoized here and shared across walks.
    Each walk is a LIFO traversal over cached edges that stops as soon
    as its :class:`WalkResult` is decided.

    ``forced_outcomes`` maps the PCs of branches that test the
    variable (via a direct in-block load chain) to the direction the
    tampered value forces; ``None`` disables forcing (unknown value /
    foreign frame).  Forcing stays valid only while no walked
    instruction may write the variable — the ``forcing`` bit of each
    state.  A check whose load sits *before* a state's entry index
    read the clean value, so it is never forced (only a walk's start
    state can have a nonzero entry index).
    """

    def __init__(
        self,
        fn: IRFunction,
        tables: FunctionTables,
        facts_by_pc: Mapping[int, BranchFacts],
        callee_facts: Mapping[str, CalleeFacts],
        var: Variable,
        forced_outcomes: Optional[Mapping[int, bool]],
    ) -> None:
        self._fn = fn
        self._tables = tables
        self._facts_by_pc = facts_by_pc
        self._callee_facts = callee_facts
        self._var = var
        self._forced = forced_outcomes
        self._expansions: Dict[_WalkState, _Expansion] = {}

    def expand(self, state: _WalkState) -> _Expansion:
        cached = self._expansions.get(state)
        if cached is None:
            cached = self._expand(state)
            self._expansions.setdefault(state, cached)
        return cached

    def _expand(self, state: _WalkState) -> _Expansion:
        label, index, bsv, forcing = state
        var = self._var
        instructions = self._fn.block(label).instructions
        wrote = False
        cursor = index
        while cursor < len(instructions):
            instruction = instructions[cursor]
            cls = instruction.__class__
            if cls is Store:
                assert isinstance(instruction, Store)
                if instruction.var == var:
                    forcing = False
                    wrote = True
            elif cls is StoreIndirect:
                assert isinstance(instruction, StoreIndirect)
                if not instruction.may_alias or var in instruction.may_alias:
                    forcing = False
                    wrote = True
            elif cls is Call:
                assert isinstance(instruction, Call)
                if instruction.callee not in BUILTINS:
                    facts = self._callee_facts.get(instruction.callee)
                    if facts is None or not facts.total:
                        return _Expansion(
                            ("escape:call", instruction.callee), (), wrote
                        )
                    if facts.may_write_var(var):
                        forcing = False
                        wrote = True
            elif _faultable_division(instruction):
                return _Expansion(
                    ("escape:division", str(instruction)), (), wrote
                )
            elif cls is Return:
                return _Expansion(("return", ""), (), wrote)
            elif cls is Jump:
                assert isinstance(instruction, Jump)
                return _Expansion(
                    None,
                    (
                        (
                            f"{label}:jump",
                            (instruction.target, 0, bsv, forcing),
                        ),
                    ),
                    wrote,
                )
            elif cls is CondBranch:
                assert isinstance(instruction, CondBranch)
                pc = instruction.address
                expected, after_taken, after_not_taken = _branch_step(
                    self._tables, pc, bsv
                )
                forced: Optional[bool] = None
                if forcing and self._forced is not None:
                    branch_facts = self._facts_by_pc.get(pc)
                    if (
                        pc in self._forced
                        and branch_facts is not None
                        and branch_facts.check is not None
                        # A load at an instruction slot before this
                        # state's entry index already ran — it read the
                        # clean, pre-tamper value, so the register does
                        # not carry the forced value.
                        and branch_facts.check.load_index >= index
                    ):
                        forced = self._forced[pc]
                edges: List[Tuple[str, _WalkState]] = []
                for direction, target, after in (
                    (True, instruction.taken, after_taken),
                    (False, instruction.fallthrough, after_not_taken),
                ):
                    if forced is not None and direction != forced:
                        continue
                    edge = f"{label}:{'T' if direction else 'NT'}"
                    if expected is not None and expected != direction:
                        # The runtime verifies before updating: the
                        # definite expectation is contradicted ⇒ alarm.
                        alarm_state: _WalkState = (
                            f"<alarm:{label}:{direction}>",
                            -1,
                            bsv,
                            forcing,
                        )
                        self._expansions.setdefault(
                            alarm_state,
                            _Expansion(("alarm", edge), (), False),
                        )
                        edges.append((edge, alarm_state))
                        continue
                    edges.append((edge, (target, 0, after, forcing)))
                return _Expansion(None, tuple(edges), wrote)
            cursor += 1
        # Unreachable for verified IR: blocks end in a terminator.
        return _Expansion(("return", ""), (), wrote)  # pragma: no cover

    def walk(
        self,
        start_block: str,
        start_index: int,
        initial: Bsv,
    ) -> WalkResult:
        """Decide :class:`WalkResult` for one tamper point, reusing
        expansions across walks.

        Both facts only ever go from true to false as states are
        popped: a non-alarm terminal refutes ``must_alarm``; an escape
        terminal or a write of the variable refutes ``clean_return``;
        the state cap refutes both.  The walk stops once both are
        false.  The first non-alarm terminal and its parent chain (the
        witness) are fixed the moment it is popped, so stopping early
        changes no answer.  Only a walk that exhausts its graph with a
        fact still true runs the cycle check, which refutes both.
        """
        start: _WalkState = (
            start_block,
            start_index,
            initial,
            self._forced is not None,
        )
        parents: Dict[_WalkState, Tuple[_WalkState, str]] = {}
        witness_state: Optional[_WalkState] = None
        escape: Tuple[str, ...] = ()
        must_alarm = clean_return = True
        queue: List[_WalkState] = [start]
        seen: Set[_WalkState] = {start}
        while queue and (must_alarm or clean_return):
            state = queue.pop()
            if len(seen) > MAX_WALK_STATES:
                escape = ("escape:state-cap",)
                break
            expansion = self.expand(state)
            if expansion.wrote:
                clean_return = False
            if expansion.terminal is not None:
                kind = expansion.terminal[0]
                if kind != "alarm" and witness_state is None:
                    witness_state = state
                    must_alarm = False
                if kind not in ("alarm", "return"):
                    clean_return = False
                continue
            for edge, nxt in expansion.edges:
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = (state, edge)
                    queue.append(nxt)
        if (
            not escape
            and (must_alarm or clean_return)
            and _has_cycle(
                [start], lambda node: [nxt for _, nxt in self.expand(node).edges]
            )
        ):
            escape = ("escape:loop",)
        if escape:
            must_alarm = clean_return = False
        if witness_state is None:
            return WalkResult(must_alarm, clean_return, escape)

        path: List[str] = []
        cursor_state = witness_state
        while cursor_state != start and cursor_state in parents:
            parent, edge = parents[cursor_state]
            path.append(edge)
            cursor_state = parent
        path.reverse()
        terminal = self.expand(witness_state).terminal
        assert terminal is not None
        kind, detail = terminal
        path.append(f"{kind}{f'({detail})' if detail else ''}")
        return WalkResult(must_alarm, clean_return, tuple(path[-12:]))


# ----------------------------------------------------------------------
# Value regions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ValueRegion:
    """A maximal set of tamper values with identical forced outcomes
    at every branch that checks the variable.  ``None`` bounds are
    unbounded; ``representative`` is any member."""

    lo: Optional[int]
    hi: Optional[int]
    representative: int

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


def value_regions(
    checks: Sequence[Tuple[object, int]],
) -> Tuple[ValueRegion, ...]:
    """Partition ℤ by the bounds of the checks over one variable.

    ``checks`` is a sequence of ``(RelOp, bound)``; every relop's
    truth value changes only at ``bound-1 / bound / bound+1``, so the
    candidate boundary set below makes each cell outcome-constant.
    Adjacent cells with identical outcome vectors are merged.
    """
    if not checks:
        return (ValueRegion(None, None, 0),)
    candidates: Set[int] = set()
    for _op, bound in checks:
        candidates.update((bound - 1, bound, bound + 1))
    points = sorted(candidates)

    def vector(value: int) -> Tuple[bool, ...]:
        return tuple(
            op.evaluate(value, bound)  # type: ignore[attr-defined]
            for op, bound in checks
        )

    cells: List[ValueRegion] = [
        ValueRegion(None, points[0] - 1, points[0] - 1)
    ]
    for i, point in enumerate(points):
        cells.append(ValueRegion(point, point, point))
        nxt = points[i + 1] if i + 1 < len(points) else None
        if nxt is None:
            cells.append(ValueRegion(point + 1, None, point + 1))
        elif nxt > point + 1:
            cells.append(ValueRegion(point + 1, nxt - 1, point + 1))

    merged: List[ValueRegion] = []
    for cell in cells:
        if merged and vector(merged[-1].representative) == vector(
            cell.representative
        ):
            merged[-1] = ValueRegion(
                merged[-1].lo, cell.hi, merged[-1].representative
            )
        else:
            merged.append(cell)
    return tuple(merged)


# ----------------------------------------------------------------------
# The analysis facade
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PointVerdict:
    """One (variable × region × point) verdict of the static report."""

    variable: str
    function: str
    block: str
    region: ValueRegion
    verdict: str
    witness: Tuple[str, ...] = ()


class DetectabilityAnalysis:
    """Whole-program detectability prover with memoized sub-analyses.

    Build once per compiled program; ask per-point verdicts
    (:meth:`point_verdict`), per-attack verdicts for the campaign join
    (:meth:`attack_verdict`), or the full static report
    (:meth:`report`).
    """

    def __init__(self, program: object, purity: PurityResult) -> None:
        self._program = program
        module = program.module  # type: ignore[attr-defined]
        self._module = module
        self._tables = program.tables  # type: ignore[attr-defined]
        self._opt_level = int(
            getattr(program, "opt_level", 0) or 0
        )
        self._functions: Dict[str, IRFunction] = {
            fn.name: fn for fn in module.functions
        }
        self._purity = purity
        self._callee_facts = compute_callee_facts(
            list(module.functions), purity
        )
        self._relevance = compute_branch_relevance(list(module.functions))
        self._def_maps: Dict[str, DefinitionMap] = {}
        self._facts: Dict[str, Dict[int, BranchFacts]] = {}
        self._must: Dict[str, Dict[str, Bsv]] = {}
        self._pruned: Dict[str, FrozenSet[Tuple[str, bool]]] = {}
        self._graphs: Dict[
            Tuple[str, str, int, Optional[Tuple[Tuple[int, bool], ...]]],
            WalkGraph,
        ] = {}
        self._walks: Dict[
            Tuple[
                str,
                str,
                int,
                str,
                int,
                Optional[Tuple[Tuple[int, bool], ...]],
            ],
            WalkResult,
        ] = {}
        self._regions: Dict[Tuple[str, int], Tuple[ValueRegion, ...]] = {}

    # -- memoized sub-analyses ------------------------------------------

    @property
    def opt_level(self) -> int:
        return self._opt_level

    @property
    def relevance(self) -> BranchRelevance:
        return self._relevance

    def _def_map(self, fn: IRFunction) -> DefinitionMap:
        if fn.name not in self._def_maps:
            self._def_maps[fn.name] = DefinitionMap(
                fn, self._module, self._purity
            )
        return self._def_maps[fn.name]

    def branch_facts(self, fn: IRFunction) -> Dict[int, BranchFacts]:
        if fn.name not in self._facts:
            self._facts[fn.name] = analyze_branches(fn, self._def_map(fn))
        return self._facts[fn.name]

    def _pruned_edges(
        self, fn: IRFunction
    ) -> FrozenSet[Tuple[str, bool]]:
        """Opt-3 clean-prefix refinement; empty below opt 3."""
        if fn.name not in self._pruned:
            if self._opt_level >= 3:
                _reached, pruned = entry_reachability(
                    fn, self._def_map(fn), self.branch_facts(fn)
                )
                self._pruned[fn.name] = frozenset(pruned)
            else:
                self._pruned[fn.name] = frozenset()
        return self._pruned[fn.name]

    def must_states(self, fn: IRFunction) -> Dict[str, Bsv]:
        if fn.name not in self._must:
            self._must[fn.name] = must_bsv_states(
                fn,
                self._tables.tables_for(fn.name),
                self._pruned_edges(fn),
            )
        return self._must[fn.name]

    def regions_for(self, var: Variable) -> Tuple[ValueRegion, ...]:
        key = (var.name, var.uid)
        if key not in self._regions:
            checks: List[Tuple[object, int]] = []
            for fn in self._module.functions:
                for facts in self.branch_facts(fn).values():
                    if facts.check is not None and facts.check.var == var:
                        checks.append((facts.check.op, facts.check.bound))
            self._regions[key] = value_regions(checks)
        return self._regions[key]

    # -- walks -----------------------------------------------------------

    def walk_from(
        self,
        fn_name: str,
        block: str,
        index: int,
        var: Variable,
        value: Optional[int],
    ) -> WalkResult:
        """Memoized must-alarm walk from a resume point.

        ``value`` enables forcing (the tampered value is known and the
        walked frame can see the variable); ``None`` walks both
        directions everywhere.
        """
        fn = self._functions[fn_name]
        facts_by_pc = self.branch_facts(fn)
        forced: Optional[Dict[int, bool]] = None
        forced_key: Optional[Tuple[Tuple[int, bool], ...]] = None
        if value is not None:
            forced = {
                pc: facts.check.outcome_for_value(value)
                for pc, facts in facts_by_pc.items()
                if facts.check is not None and facts.check.var == var
            }
            forced_key = tuple(sorted(forced.items()))
        cache_key = (
            fn_name,
            block,
            index,
            var.name,
            var.uid,
            forced_key,
        )
        if cache_key not in self._walks:
            graph_key = (fn_name, var.name, var.uid, forced_key)
            graph = self._graphs.get(graph_key)
            if graph is None:
                graph = self._graphs[graph_key] = WalkGraph(
                    fn,
                    self._tables.tables_for(fn_name),
                    facts_by_pc,
                    self._callee_facts,
                    var,
                    forced,
                )
            self._walks[cache_key] = graph.walk(
                block, index, self.must_states(fn).get(block, _UNKNOWN)
            )
        return self._walks[cache_key]

    # -- verdicts --------------------------------------------------------

    def point_verdict(
        self,
        var: Variable,
        fn_name: str,
        block: str,
        value: int,
        index: int = 0,
    ) -> Tuple[str, Tuple[str, ...]]:
        """Verdict for a tamper landing at one resume point, treating
        that point as the innermost (resuming) activation."""
        if not self._relevance.relevant(var):
            return PROVEN_UNDETECTED, ()
        result = self.walk_from(fn_name, block, index, var, value)
        if result.must_alarm:
            return PROVEN_DETECTED, ()
        return POSSIBLY_DETECTED, result.witness

    def attack_verdict(
        self,
        var: Variable,
        word_offset: int,
        value: int,
        frames: Sequence[SiteFrame],
        owner_frame: Optional[int],
    ) -> Tuple[str, Tuple[str, ...]]:
        """Verdict for a concrete campaign attack.

        ``frames`` is the interpreter's tamper-moment site stack
        (outer→inner resume points); ``owner_frame`` is the index of
        the activation owning a tampered stack slot (``None`` for a
        global).  Walking inner→outer: the innermost frame that
        must-alarms proves ``DET801`` provided every frame below it
        can only alarm or return without touching the variable (its
        alarm is a catch; its return resumes the outer walk's point
        with the corruption and the outer BSV frame intact).
        """
        if not self._relevance.relevant(var):
            return PROVEN_UNDETECTED, ()
        if not frames:
            return POSSIBLY_DETECTED, ("no-site",)
        deeper_clean = True
        witness: Tuple[str, ...] = ()
        for depth in range(len(frames) - 1, -1, -1):
            fn_name, block, index = frames[depth]
            if fn_name not in self._functions:
                return POSSIBLY_DETECTED, (f"unknown-function:{fn_name}",)
            sees_var = (
                var.kind.value == "global"
                or (owner_frame is not None and depth == owner_frame)
            )
            forced_value = (
                value if sees_var and word_offset == 0 else None
            )
            result = self.walk_from(
                fn_name, block, index, var, forced_value
            )
            if not witness and not result.must_alarm:
                witness = result.witness
            if result.must_alarm and deeper_clean:
                return PROVEN_DETECTED, ()
            if not result.clean_return:
                deeper_clean = False
        return POSSIBLY_DETECTED, witness or ("no-frame-must-alarm",)

    # -- the static report ----------------------------------------------

    def report(self) -> List[PointVerdict]:
        """Enumerate verdicts for every tamper point: each global
        variable × each value region × each block-entry resume point."""
        verdicts: List[PointVerdict] = []
        for var in self._module.globals:
            regions = self.regions_for(var)
            if not self._relevance.relevant(var):
                verdicts.append(
                    PointVerdict(
                        variable=var.name,
                        function="<module>",
                        block="<all>",
                        region=ValueRegion(None, None, 0),
                        verdict=PROVEN_UNDETECTED,
                    )
                )
                continue
            for fn in self._module.functions:
                for block in fn.blocks:
                    for region in regions:
                        verdict, witness = self.point_verdict(
                            var,
                            fn.name,
                            block.label,
                            region.representative,
                        )
                        verdicts.append(
                            PointVerdict(
                                variable=var.name,
                                function=fn.name,
                                block=block.label,
                                region=region,
                                verdict=verdict,
                                witness=witness,
                            )
                        )
        return verdicts


# ----------------------------------------------------------------------
# The registered pass
# ----------------------------------------------------------------------


def predict_detectability(
    program: object, purity: PurityResult
) -> List[Diagnostic]:
    """The ``repro predict`` pass: aggregate the per-point report into
    per-(variable, function) diagnostics through the standard engine."""
    sink = DiagnosticSink(PASS_NAME)
    analysis = DetectabilityAnalysis(program, purity)
    verdicts = analysis.report()

    by_var_fn: Dict[Tuple[str, str], List[PointVerdict]] = {}
    for verdict in verdicts:
        by_var_fn.setdefault(
            (verdict.variable, verdict.function), []
        ).append(verdict)

    for (var_name, fn_name), points in sorted(by_var_fn.items()):
        if points[0].verdict == PROVEN_UNDETECTED and fn_name == "<module>":
            sink.emit(
                PROVEN_UNDETECTED,
                f"tampering '{var_name}' can never alarm: no conditional "
                f"branch depends on it (any value, any point)",
                function=None,
            )
            continue
        proven = [p for p in points if p.verdict == PROVEN_DETECTED]
        possible = [p for p in points if p.verdict == POSSIBLY_DETECTED]
        total = len(points)
        if proven:
            example = proven[0]
            sink.emit(
                PROVEN_DETECTED,
                f"tampering '{var_name}' must alarm from "
                f"{len(proven)}/{total} (region × point) combinations "
                f"in {fn_name} (e.g. {example.block} with value in "
                f"{example.region})",
                function=fn_name,
                block=example.block,
            )
        if possible:
            example = possible[0]
            escape = " -> ".join(example.witness) or "unknown"
            sink.emit(
                POSSIBLY_DETECTED,
                f"tampering '{var_name}' may escape from "
                f"{len(possible)}/{total} (region × point) combinations "
                f"in {fn_name} (e.g. {example.block} with value in "
                f"{example.region}, escaping path: {escape})",
                function=fn_name,
                block=example.block,
            )
    return sink.diagnostics
