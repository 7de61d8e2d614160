"""IR well-formedness verification as a diagnostics pass.

Checks terminator placement, register SSA, defs-dominate-uses, frame
membership, jump targets, address monotonicity, call-graph
consistency, CFG edge agreement, and structural unreachability.  Every
violation becomes a :class:`~repro.staticcheck.diagnostics.Diagnostic`,
so one run of :func:`verify_module_diagnostics` reports all of them;
:func:`verify_module`, which every compile runs, raises on the first
error instead.

Checking is staged: dominance-based use-def verification only runs on
functions whose structure (terminators, targets, labels) checked out —
:class:`~repro.ir.dominators.DominatorTree` is not defensive against
malformed CFGs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.builder import BUILTINS
from ..ir.dominators import DominatorTree, instruction_dominates
from ..ir.function import BasicBlock, IRError, IRFunction, IRModule
from ..ir.instructions import (
    Call,
    CondBranch,
    Jump,
    Reg,
    Return,
    Terminator,
    Variable,
    defined_reg,
    used_regs,
)
from .diagnostics import Diagnostic, DiagnosticSink, Severity

PASS_NAME = "ir-verify"


def verify_module_diagnostics(module: IRModule) -> List[Diagnostic]:
    """Check every invariant and return all findings (errors first)."""
    sink = DiagnosticSink(PASS_NAME)
    global_vars = set(module.globals)
    for fn in module.functions:
        _check_function(sink, fn, global_vars, module)
    if module.finalized:
        _check_addresses(sink, module)
    return sink.diagnostics


def verify_module(module: IRModule) -> None:
    """Raise :class:`IRError` on the first error-severity finding;
    warnings (e.g. unreachable blocks) never raise."""
    for diag in verify_module_diagnostics(module):
        if diag.severity is Severity.ERROR:
            raise IRError(f"{diag.span}: {diag.message}")


def _check_function(
    sink: DiagnosticSink,
    fn: IRFunction,
    global_vars: set,
    module: IRModule,
) -> None:
    if not fn.blocks:
        sink.emit("IR101", f"function {fn.name} has no blocks", function=fn.name)
        return
    errors_before = _error_count(sink)
    labels = {block.label for block in fn.blocks}
    frame = set(fn.frame_variables)
    definitions: Dict[Reg, Tuple[BasicBlock, int]] = {}

    for block in fn.blocks:
        if not block.instructions:
            sink.emit("IR102", "block has no instructions",
                      function=fn.name, block=block.label)
            continue
        for index, instruction in enumerate(block.instructions):
            is_last = index == len(block.instructions) - 1
            if isinstance(instruction, Terminator) != is_last:
                sink.emit(
                    "IR103",
                    f"terminator misplaced at index {index}",
                    function=fn.name,
                    block=block.label,
                )
            reg = defined_reg(instruction)
            if reg is not None:
                if reg in definitions:
                    sink.emit(
                        "IR104",
                        f"register {reg} redefined",
                        function=fn.name,
                        block=block.label,
                    )
                else:
                    definitions[reg] = (block, index)
            var = getattr(instruction, "var", None)
            if isinstance(var, Variable):
                if var not in frame and var not in global_vars:
                    sink.emit(
                        "IR105",
                        f"reference to foreign variable {var}",
                        function=fn.name,
                        block=block.label,
                    )
            if isinstance(instruction, Call):
                _check_call(sink, fn, block, instruction, module)
        last = block.instructions[-1]
        if isinstance(last, Jump):
            targets = [last.target]
        elif isinstance(last, CondBranch):
            targets = [last.taken, last.fallthrough]
        elif isinstance(last, Return):
            targets = []
            if last.value is not None and not fn.returns_value:
                sink.emit(
                    "IR106",
                    f"void function {fn.name} returns a value",
                    function=fn.name,
                    block=block.label,
                )
        else:
            targets = None  # no terminator: IR103 already emitted
        if targets:
            for target in targets:
                if target not in labels:
                    sink.emit(
                        "IR107",
                        f"jump to unknown block {target!r}",
                        function=fn.name,
                        block=block.label,
                    )
        if targets is not None and module.finalized:
            _check_edges(sink, fn, block, targets)

    structurally_clean = _error_count(sink) == errors_before
    if structurally_clean:
        _check_reachability(sink, fn)
        _check_defs_dominate_uses(sink, fn, definitions)


def _check_call(
    sink: DiagnosticSink,
    fn: IRFunction,
    block: BasicBlock,
    call: Call,
    module: IRModule,
) -> None:
    if module.has_function(call.callee):
        callee = module.function(call.callee)
        arity, returns = len(callee.params), callee.returns_value
    elif call.callee in BUILTINS:
        arity, returns = BUILTINS[call.callee]
    else:
        sink.emit(
            "IR111",
            f"call to unknown function {call.callee!r}",
            function=fn.name,
            block=block.label,
        )
        return
    if len(call.args) != arity:
        sink.emit(
            "IR112",
            f"{call.callee!r} expects {arity} argument(s), "
            f"got {len(call.args)}",
            function=fn.name,
            block=block.label,
        )
    if call.dest is not None and not returns:
        sink.emit(
            "IR112",
            f"void function {call.callee!r} used as a value",
            function=fn.name,
            block=block.label,
        )


def _check_edges(
    sink: DiagnosticSink, fn: IRFunction, block: BasicBlock, targets: List[str]
) -> None:
    """Stored pred/succ lists must agree with the terminators."""
    succ_labels = [succ.label for succ in block.succs]
    if succ_labels != targets:
        sink.emit(
            "IR113",
            f"successor list {succ_labels} disagrees with "
            f"terminator targets {targets}",
            function=fn.name,
            block=block.label,
        )
        return
    for succ in block.succs:
        if not any(pred is block for pred in succ.preds):
            sink.emit(
                "IR113",
                f"{succ.label} is a successor but does not list "
                f"{block.label} as a predecessor",
                function=fn.name,
                block=block.label,
            )


def _check_reachability(sink: DiagnosticSink, fn: IRFunction) -> None:
    """Warn about blocks no terminator path from entry can reach.

    Walks terminator targets directly, so it works on functions whose
    pred/succ lists were never computed.
    """
    reached = set()
    stack = [fn.entry.label]
    while stack:
        label = stack.pop()
        if label in reached:
            continue
        reached.add(label)
        last = fn.block(label).instructions[-1]
        if isinstance(last, Jump):
            stack.append(last.target)
        elif isinstance(last, CondBranch):
            stack.extend((last.taken, last.fallthrough))
    for block in fn.blocks:
        if block.label not in reached:
            sink.emit(
                "IR114",
                "block is unreachable from the function entry",
                function=fn.name,
                block=block.label,
            )


def _check_defs_dominate_uses(
    sink: DiagnosticSink,
    fn: IRFunction,
    definitions: Dict[Reg, Tuple[BasicBlock, int]],
) -> None:
    tree = DominatorTree(fn)
    for block in fn.blocks:
        for index, instruction in enumerate(block.instructions):
            for reg in used_regs(instruction):
                if reg not in definitions:
                    sink.emit(
                        "IR108",
                        f"use of undefined register {reg}",
                        function=fn.name,
                        block=block.label,
                    )
                    continue
                def_block, def_index = definitions[reg]
                if def_block is block and def_index >= index:
                    sink.emit(
                        "IR109",
                        f"{reg} used before its definition",
                        function=fn.name,
                        block=block.label,
                    )
                elif not instruction_dominates(
                    fn, tree, def_block, def_index, block, index
                ):
                    sink.emit(
                        "IR109",
                        f"definition of {reg} does not dominate its use",
                        function=fn.name,
                        block=block.label,
                    )


def _check_addresses(sink: DiagnosticSink, module: IRModule) -> None:
    addresses = [
        i.address for fn in module.functions for i in fn.instructions()
    ]
    if any(a < 0 for a in addresses):
        sink.emit("IR110", "finalized module has unassigned addresses")
        return
    if sorted(addresses) != addresses or len(set(addresses)) != len(addresses):
        sink.emit("IR110", "instruction addresses are not strictly increasing")


def _error_count(sink: DiagnosticSink) -> int:
    return sum(1 for d in sink.diagnostics if d.severity is Severity.ERROR)
