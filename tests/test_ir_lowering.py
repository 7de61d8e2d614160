"""Tests for AST → IR lowering: structure, verification, addresses."""

import pytest

from repro.lang import LoweringError, parse_program
from repro.ir import (
    AddrOf,
    BinOp,
    Call,
    Cmp,
    CondBranch,
    CODE_BASE,
    INSTRUCTION_BYTES,
    Jump,
    Load,
    LoadIndirect,
    RelOp,
    Return,
    Store,
    StoreIndirect,
    UnOp,
    VarKind,
    lower_program,
)
from repro.staticcheck.irverify import verify_module


def lower(source):
    module = lower_program(parse_program(source))
    verify_module(module)
    return module


def instructions_of(module, name):
    return list(module.function(name).instructions())


def ops(module, name):
    return [type(i).__name__ for i in instructions_of(module, name)]


# ----------------------------------------------------------------------
# Basics
# ----------------------------------------------------------------------


def test_scalar_read_becomes_load():
    module = lower("int g; void f() { int x = g; }")
    kinds = ops(module, "f")
    assert "Load" in kinds
    assert "Store" in kinds


def test_scalar_write_becomes_store():
    module = lower("int g; void f() { g = 3; }")
    (store,) = [i for i in instructions_of(module, "f") if isinstance(i, Store)]
    assert store.var.name == "g"
    assert store.src == 3


def test_params_are_memory_resident():
    module = lower("int f(int a) { return a; }")
    fn = module.function("f")
    assert fn.params[0].kind is VarKind.PARAM
    (load,) = [i for i in fn.instructions() if isinstance(i, Load)]
    assert load.var is fn.params[0]


def test_registers_are_single_assignment():
    module = lower("int g; void f() { int x = g + g * g; g = x + x; }")
    seen = set()
    for instruction in instructions_of(module, "f"):
        dest = getattr(instruction, "dest", None)
        if dest is not None:
            assert dest not in seen
            seen.add(dest)


def test_locals_shadow_globals():
    module = lower("int x; void f() { int x = 1; x = 2; }")
    stores = [i for i in instructions_of(module, "f") if isinstance(i, Store)]
    assert all(s.var.kind is VarKind.LOCAL for s in stores)


def test_inner_scope_shadowing():
    module = lower("void f() { int x = 1; { int x = 2; } x = 3; }")
    stores = [i for i in instructions_of(module, "f") if isinstance(i, Store)]
    # Three stores to two distinct variables named x.
    assert len(stores) == 3
    assert len({s.var for s in stores}) == 2
    assert stores[0].var is stores[2].var


def test_global_initializers_recorded():
    module = lower("int a = 5; int b; void f() { }")
    inits = {v.name: i for v, i in module.global_inits.items()}
    assert inits == {"a": 5}


# ----------------------------------------------------------------------
# Conditions and control flow
# ----------------------------------------------------------------------


def test_simple_condition_in_same_block_as_load():
    module = lower("int x; void f() { if (x < 10) { emit(1); } }")
    fn = module.function("f")
    entry = fn.entry
    assert isinstance(entry.terminator, CondBranch)
    # The load feeding the branch sits in the same block.
    assert any(isinstance(i, Load) for i in entry.body)


def test_condition_relop_encoded_on_branch():
    module = lower("int x; void f() { if (x <= 7) { emit(1); } }")
    branch = module.function("f").entry.terminator
    assert branch.op is RelOp.LE
    assert branch.rhs == 7


def test_constant_lhs_condition_swaps_operands():
    module = lower("int x; void f() { if (10 > x) { emit(1); } }")
    branch = module.function("f").entry.terminator
    assert isinstance(branch, CondBranch)
    assert branch.op is RelOp.LT  # x < 10


def test_constant_condition_folds_to_jump():
    module = lower("void f() { if (1 < 2) { emit(1); } else { emit(2); } }")
    fn = module.function("f")
    assert isinstance(fn.entry.terminator, Jump)
    # else branch is unreachable and pruned.
    calls = [i for i in fn.instructions() if isinstance(i, Call)]
    assert [c.args for c in calls] == [[1]]


def test_truthiness_condition_compares_ne_zero():
    module = lower("int x; void f() { if (x) { emit(1); } }")
    branch = module.function("f").entry.terminator
    assert branch.op is RelOp.NE
    assert branch.rhs == 0


def test_not_condition_swaps_targets():
    direct = lower("int x; void f() { if (x == 0) { emit(1); } else { emit(2); } }")
    negated = lower("int x; void f() { if (!(x == 0)) { emit(2); } else { emit(1); } }")
    b1 = direct.function("f").entry.terminator
    b2 = negated.function("f").entry.terminator
    assert b1.op is b2.op is RelOp.EQ
    # '!' swaps targets: the x==0 branch's taken side holds emit(1) in
    # both versions.
    taken1 = direct.function("f").block(b1.taken)
    taken2 = negated.function("f").block(b2.taken)
    assert [i.args for i in taken1.body if isinstance(i, Call)] == [[1]]
    assert [i.args for i in taken2.body if isinstance(i, Call)] == [[1]]


def test_short_circuit_and_produces_two_branches():
    module = lower("int x; int y; void f() { if (x < 1 && y < 2) { emit(1); } }")
    branches = module.function("f").cond_branches()
    assert len(branches) == 2


def test_short_circuit_or_produces_two_branches():
    module = lower("int x; int y; void f() { if (x < 1 || y < 2) { emit(1); } }")
    branches = module.function("f").cond_branches()
    assert len(branches) == 2


def test_while_loop_shape():
    module = lower("int n; void f() { while (n > 0) { n = n - 1; } }")
    fn = module.function("f")
    (branch,) = fn.cond_branches()
    header = fn.block_of(branch)
    # The loop body jumps back to the header.
    body = fn.block(branch.taken)
    last = body
    # Follow jumps until we return to the header.
    seen = set()
    while not isinstance(last.terminator, CondBranch):
        assert last.label not in seen
        seen.add(last.label)
        last = fn.block(last.terminator.target)
    assert last is header


def test_for_loop_lowering_counts():
    module = lower(
        "void f() { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + i; } }"
    )
    fn = module.function("f")
    assert len(fn.cond_branches()) == 1


def test_break_exits_loop():
    module = lower("void f() { while (1) { break; } emit(9); }")
    fn = module.function("f")
    # No conditional branches: while(1) folds, break jumps out.
    assert fn.cond_branches() == []
    calls = [i for i in fn.instructions() if isinstance(i, Call)]
    assert [c.args for c in calls] == [[9]]


def test_continue_targets_step_block_in_for():
    module = lower(
        "void f() { int s = 0; for (int i = 0; i < 9; i = i + 1)"
        " { if (i == 3) { continue; } s = s + 1; } emit(s); }"
    )
    fn = module.function("f")
    assert len(fn.cond_branches()) == 2


def test_break_outside_loop_rejected():
    with pytest.raises(LoweringError):
        lower("void f() { break; }")


def test_continue_outside_loop_rejected():
    with pytest.raises(LoweringError):
        lower("void f() { continue; }")


def test_fall_off_end_int_function_returns_zero():
    module = lower("int f() { }")
    (terminator,) = [
        b.terminator for b in module.function("f").blocks
    ]
    assert isinstance(terminator, Return)
    assert terminator.value == 0


def test_fall_off_end_void_function_returns_none():
    module = lower("void f() { }")
    terminator = module.function("f").entry.terminator
    assert isinstance(terminator, Return)
    assert terminator.value is None


def test_code_after_return_is_pruned():
    module = lower("int f() { return 1; emit(2); }")
    calls = [i for i in module.function("f").instructions() if isinstance(i, Call)]
    assert calls == []


# ----------------------------------------------------------------------
# Pointers, arrays, calls
# ----------------------------------------------------------------------


def test_pointer_deref_read_uses_indirect_load():
    module = lower("void f(int *p) { int x = *p; }")
    kinds = ops(module, "f")
    assert "LoadIndirect" in kinds


def test_pointer_deref_write_uses_indirect_store():
    module = lower("void f(int *p) { *p = 7; }")
    kinds = ops(module, "f")
    assert "StoreIndirect" in kinds


def test_array_index_computes_address():
    module = lower("int buf[8]; void f() { buf[3] = 1; }")
    insns = instructions_of(module, "f")
    assert any(isinstance(i, AddrOf) for i in insns)
    assert any(isinstance(i, StoreIndirect) for i in insns)


def test_array_index_zero_elides_add():
    module = lower("int buf[8]; void f() { buf[0] = 1; }")
    insns = instructions_of(module, "f")
    assert not any(isinstance(i, BinOp) for i in insns)


def test_address_of_scalar():
    module = lower("void f() { int x = 0; int *p = &x; }")
    insns = instructions_of(module, "f")
    addr_ofs = [i for i in insns if isinstance(i, AddrOf)]
    assert [a.var.name for a in addr_ofs] == ["x"]


def test_array_name_decays_to_address():
    module = lower("int buf[4]; void f(int *q) { } void g() { f(buf); }")
    insns = instructions_of(module, "g")
    assert any(isinstance(i, AddrOf) for i in insns)


def test_assign_to_array_name_rejected():
    with pytest.raises(LoweringError):
        lower("int buf[4]; void f() { buf = 1; }")


def test_call_with_return_value():
    module = lower("int g() { return 4; } void f() { int x = g(); }")
    calls = [i for i in instructions_of(module, "f") if isinstance(i, Call)]
    assert calls[0].dest is not None


def test_void_call_has_no_dest():
    module = lower("void g() { } void f() { g(); }")
    calls = [i for i in instructions_of(module, "f") if isinstance(i, Call)]
    assert calls[0].dest is None


def test_void_call_as_value_rejected():
    with pytest.raises(LoweringError):
        lower("void g() { } void f() { int x = g(); }")


def test_undefined_function_rejected():
    with pytest.raises(LoweringError):
        lower("void f() { mystery(); }")


def test_arity_mismatch_rejected():
    with pytest.raises(LoweringError):
        lower("int g(int a) { return a; } void f() { g(1, 2); }")


def test_builtin_arity_checked():
    with pytest.raises(LoweringError):
        lower("void f() { emit(); }")


def test_builtin_shadowing_rejected():
    with pytest.raises(LoweringError):
        lower("int read_int() { return 0; }")


def test_duplicate_function_rejected():
    with pytest.raises(LoweringError):
        lower("void f() { } void f() { }")


def test_undefined_variable_rejected():
    with pytest.raises(LoweringError):
        lower("void f() { x = 1; }")


def test_redeclaration_in_same_scope_rejected():
    with pytest.raises(LoweringError):
        lower("void f() { int x; int x; }")


# ----------------------------------------------------------------------
# Value-position logical ops, folding, unary
# ----------------------------------------------------------------------


def test_logical_and_in_value_position():
    module = lower("int a; int b; void f() { int x = a && b; }")
    insns = instructions_of(module, "f")
    assert any(isinstance(i, Cmp) for i in insns)
    assert module.function("f").cond_branches() == []


def test_constant_folding_of_arithmetic():
    module = lower("void f() { emit(2 + 3 * 4); }")
    (call,) = [i for i in instructions_of(module, "f") if isinstance(i, Call)]
    assert call.args == [14]


def test_constant_folding_division_truncates_toward_zero():
    module = lower("void f() { emit(-7 / 2); }")
    (call,) = [i for i in instructions_of(module, "f") if isinstance(i, Call)]
    assert call.args == [-3]


def test_constant_division_by_zero_rejected():
    with pytest.raises(LoweringError):
        lower("void f() { emit(1 / 0); }")


def test_unary_minus_on_register():
    module = lower("int x; void f() { emit(-x); }")
    insns = instructions_of(module, "f")
    assert any(isinstance(i, UnOp) and i.op == "-" for i in insns)


# ----------------------------------------------------------------------
# Addresses and module finalization
# ----------------------------------------------------------------------


def test_addresses_assigned_and_spaced():
    module = lower("int x; void f() { x = 1; } void g() { x = 2; }")
    addresses = [i.address for fn in module.functions for i in fn.instructions()]
    assert addresses[0] == CODE_BASE
    assert all(
        b - a == INSTRUCTION_BYTES for a, b in zip(addresses, addresses[1:])
    )


def test_function_extent():
    module = lower("int x; void f() { x = 1; } void g() { x = 2; }")
    f_lo, f_hi = module.function_extent("f")
    g_lo, g_hi = module.function_extent("g")
    assert f_hi < g_lo
    assert f_lo == CODE_BASE


def test_instruction_at_lookup():
    module = lower("void f() { emit(1); }")
    first = next(iter(module.function("f").instructions()))
    assert module.instruction_at(first.address) is first
    assert module.instruction_at(0xDEAD) is None


def test_branch_edges_taken_first():
    module = lower("int x; void f() { if (x < 1) { emit(1); } else { emit(2); } }")
    fn = module.function("f")
    entry = fn.entry
    branch = entry.terminator
    assert entry.succs[0].label == branch.taken
    assert entry.succs[1].label == branch.fallthrough
