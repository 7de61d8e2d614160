"""Tests for the diagnostics-based IR verifier (pass: ir-verify).

The raise-on-first-error :func:`verify_module` every compile runs is
also covered by the IR test suite; these tests exercise multiple
findings per run, call-graph checks, CFG edge agreement, and
unreachability warnings.
"""

import copy

import pytest

from repro.ir import (
    BasicBlock,
    Call,
    IRError,
    Return,
    lower_program,
)
from repro.lang import parse_program
from repro.staticcheck import Severity, verify_module_diagnostics
from repro.staticcheck.irverify import verify_module

SOURCE = """
int x;
void helper(int a) { emit(a); }
void main() {
    x = read_int();
    helper(x);
    if (x > 0) { emit(1); } else { emit(2); }
}
"""


def lowered():
    return lower_program(parse_program(SOURCE))


def find_call(fn, callee):
    for block in fn.blocks:
        for instr in block.instructions:
            if isinstance(instr, Call) and instr.callee == callee:
                return instr
    raise AssertionError(f"no call to {callee}")


def test_clean_module_has_no_findings():
    assert verify_module_diagnostics(lowered()) == []


def test_call_to_unknown_function_is_ir111():
    module = lowered()
    find_call(module.function("main"), "helper").callee = "nope"
    codes = [d.code for d in verify_module_diagnostics(module)]
    assert "IR111" in codes


def test_call_arity_mismatch_is_ir112():
    module = lowered()
    call = find_call(module.function("main"), "helper")
    call.args = call.args + call.args
    codes = [d.code for d in verify_module_diagnostics(module)]
    assert "IR112" in codes


def test_value_use_of_void_builtin_is_ir112():
    module = lowered()
    main = module.function("main")
    emit_call = find_call(main, "emit")
    helper_call = find_call(main, "helper")
    emit_call.dest = find_call(main, "read_int").dest
    diagnostics = verify_module_diagnostics(module)
    # Reuses an existing register, so IR104 fires too — one run reports
    # every independent violation, unlike the old first-error verifier.
    codes = {d.code for d in diagnostics}
    assert {"IR104", "IR112"} <= codes
    assert helper_call.dest is None  # untouched call stays legal


def test_unreachable_block_is_a_warning_not_an_error():
    module = lowered()
    main = module.function("main")
    orphan = BasicBlock(label="orphan")
    ret = Return(value=None)
    # finalize() would sweep the unreachable block away, so place the
    # instruction address by hand to keep IR110 quiet.
    ret.address = (
        max(i.address for fn in module.functions for i in fn.instructions())
        + 4
    )
    orphan.instructions.append(ret)
    main.blocks.append(orphan)
    diagnostics = verify_module_diagnostics(module)
    [diag] = [d for d in diagnostics if d.code == "IR114"]
    assert diag.severity is Severity.WARNING
    assert diag.span.block == "orphan"
    # verify_module only raises on errors; warnings pass through.
    verify_module(module)


def test_tampered_edge_lists_are_ir113():
    module = lowered()
    module.finalize()
    assert verify_module_diagnostics(module) == []
    main = module.function("main")
    for block in main.blocks:
        if block.succs:
            block.succs = list(reversed(block.succs)) + [block]
            break
    codes = [d.code for d in verify_module_diagnostics(module)]
    assert "IR113" in codes


def test_a_copy_of_the_predecessor_is_not_the_predecessor_ir113():
    """Pred lists name blocks by identity: an equal copy of the block
    (same label, same instruction list) is not an edge to it."""
    module = lowered()
    module.finalize()
    main = module.function("main")
    block = next(b for b in main.blocks if b.succs)
    succ = block.succs[0]
    succ.preds = [copy.copy(p) if p is block else p for p in succ.preds]
    assert block in succ.preds  # dataclass equality still matches
    diagnostics = verify_module_diagnostics(module)
    [diag] = [d for d in diagnostics if d.code == "IR113"]
    assert diag.span.block == block.label


def test_compat_shim_raises_with_span_in_message():
    module = lowered()
    find_call(module.function("main"), "helper").callee = "nope"
    with pytest.raises(IRError, match="main.*unknown function 'nope'"):
        verify_module(module)
