"""Tests for CFG utilities, dominators, verifier, and printer."""

import pytest

from repro.lang import parse_program
from repro.ir import BasicBlock, CondBranch, Const, DominatorTree, IRError, IRFunction, IRModule, Jump, Reg, RelOp, Return, Store, Variable, VarKind, branch_free_region, cond_edges, edge_target, edges_covering_block, entry_region, format_function, format_module, iter_rpo, lower_program
from repro.staticcheck.irverify import verify_module


def lower(source):
    return lower_program(parse_program(source))


DIAMOND = """
int x;
void f() {
  if (x < 5) { emit(1); } else { emit(2); }
  emit(3);
}
"""

LOOP = """
int x;
void f() {
  while (x < 10) {
    if (x < 0) { emit(1); }
    x = x + 1;
  }
}
"""


# ----------------------------------------------------------------------
# Conditional edges and regions
# ----------------------------------------------------------------------


def test_cond_edges_enumerates_both_directions():
    fn = lower(DIAMOND).function("f")
    edges = cond_edges(fn)
    assert len(edges) == 2
    assert edges[0].taken and not edges[1].taken
    assert edges[0].block_label == edges[1].block_label


def test_edge_target_matches_branch_fields():
    fn = lower(DIAMOND).function("f")
    taken_edge, fall_edge = cond_edges(fn)
    branch = fn.block(taken_edge.block_label).terminator
    assert edge_target(fn, taken_edge).label == branch.taken
    assert edge_target(fn, fall_edge).label == branch.fallthrough


def test_branch_free_region_of_diamond_covers_arm_and_join():
    fn = lower(DIAMOND).function("f")
    taken_edge, _ = cond_edges(fn)
    region = branch_free_region(fn, taken_edge)
    # Region: then-arm and join (no further conditional branches).
    branch = fn.block(taken_edge.block_label).terminator
    assert branch.taken in region
    assert branch.fallthrough not in region


def test_branch_free_region_stops_at_cond_branch():
    fn = lower(LOOP).function("f")
    # Edge into the loop body stops at the inner if's block.
    edges = cond_edges(fn)
    outer_taken = edges[0]
    region = branch_free_region(fn, outer_taken)
    inner_branch_block = fn.block_of(fn.cond_branches()[1])
    assert inner_branch_block.label in region
    # Inner block ends in a branch, so its successors are not expanded
    # through it.
    for succ in inner_branch_block.succs:
        # Successors may appear only if reachable another branch-free way.
        if succ.label in region:
            assert any(
                p.label in region and not p.ends_in_cond_branch()
                for p in succ.preds
            )


def test_regions_cover_every_dynamically_entered_block():
    # Invariant behind kill placement: every block that is not in the
    # entry region is in the region of at least one conditional edge.
    fn = lower(LOOP).function("f")
    entry = entry_region(fn)
    for block in fn.blocks:
        if block.label in entry:
            continue
        assert edges_covering_block(fn, block.label), block.label


def test_entry_region_of_straight_line_function_is_everything():
    fn = lower("void f() { emit(1); emit(2); }").function("f")
    assert entry_region(fn) == {b.label for b in fn.blocks}


def test_entry_region_stops_at_first_branch():
    fn = lower(DIAMOND).function("f")
    region = entry_region(fn)
    assert region == {fn.entry.label}


# ----------------------------------------------------------------------
# RPO and dominators
# ----------------------------------------------------------------------


def test_rpo_starts_at_entry():
    fn = lower(LOOP).function("f")
    order = list(iter_rpo(fn))
    assert order[0] is fn.entry
    assert len(order) == len(fn.blocks)


def test_dominator_of_join_is_branch_block():
    fn = lower(DIAMOND).function("f")
    tree = DominatorTree(fn)
    branch_block = fn.block_of(fn.cond_branches()[0])
    branch = branch_block.terminator
    join_candidates = [
        b for b in fn.blocks
        if len(b.preds) == 2
    ]
    (join,) = join_candidates
    assert tree.idom(join.label) == branch_block.label
    assert tree.dominates(branch_block.label, join.label)
    assert not tree.dominates(branch.taken, join.label)


def test_entry_dominates_everything():
    fn = lower(LOOP).function("f")
    tree = DominatorTree(fn)
    for block in fn.blocks:
        assert tree.dominates(fn.entry.label, block.label)


def test_dominates_is_reflexive():
    fn = lower(DIAMOND).function("f")
    tree = DominatorTree(fn)
    for block in fn.blocks:
        assert tree.dominates(block.label, block.label)


def test_dominator_chain_ends_at_entry():
    fn = lower(LOOP).function("f")
    tree = DominatorTree(fn)
    for block in fn.blocks:
        chain = tree.dominators_of(block.label)
        assert chain[-1] == fn.entry.label


# ----------------------------------------------------------------------
# Verifier
# ----------------------------------------------------------------------


def _manual_function():
    var = Variable("v", VarKind.LOCAL, 1, 1)
    fn = IRFunction("m", [], returns_value=False)
    fn.locals.append(var)
    block = BasicBlock("b0")
    fn.add_block(block)
    return fn, block, var


def test_verifier_accepts_lowered_programs():
    verify_module(lower(LOOP))  # must not raise


def test_verifier_rejects_missing_terminator():
    fn, block, var = _manual_function()
    block.instructions.append(Const(Reg(0), 1))
    module = IRModule(functions=[fn])
    with pytest.raises(IRError):
        verify_module(module)


def test_verifier_rejects_register_redefinition():
    fn, block, var = _manual_function()
    block.instructions.append(Const(Reg(0), 1))
    block.instructions.append(Const(Reg(0), 2))
    block.instructions.append(Return(None))
    with pytest.raises(IRError):
        verify_module(IRModule(functions=[fn]))


def test_verifier_rejects_use_before_def():
    fn, block, var = _manual_function()
    block.instructions.append(Store(var, Reg(3)))
    block.instructions.append(Const(Reg(3), 1))
    block.instructions.append(Return(None))
    with pytest.raises(IRError):
        verify_module(IRModule(functions=[fn]))


def test_verifier_rejects_unknown_jump_target():
    fn, block, var = _manual_function()
    block.instructions.append(Jump("nowhere"))
    with pytest.raises(IRError):
        verify_module(IRModule(functions=[fn]))


def test_verifier_rejects_foreign_variable():
    fn, block, var = _manual_function()
    foreign = Variable("alien", VarKind.LOCAL, 1, 99)
    block.instructions.append(Store(foreign, 1))
    block.instructions.append(Return(None))
    with pytest.raises(IRError):
        verify_module(IRModule(functions=[fn]))


def test_verifier_rejects_value_return_from_void():
    fn, block, var = _manual_function()
    block.instructions.append(Return(5))
    with pytest.raises(IRError):
        verify_module(IRModule(functions=[fn]))


def test_verifier_rejects_def_not_dominating_use():
    # Build: entry branches to L or R; L defines t0; join uses t0.
    fn = IRFunction("m", [], returns_value=False)
    entry = fn.add_block(BasicBlock("e"))
    left = fn.add_block(BasicBlock("l"))
    right = fn.add_block(BasicBlock("r"))
    join = fn.add_block(BasicBlock("j"))
    var = Variable("v", VarKind.LOCAL, 1, 1)
    fn.locals.append(var)
    entry.instructions += [Const(Reg(9), 0), CondBranch(Reg(9), RelOp.NE, 0, "l", "r")]
    left.instructions += [Const(Reg(0), 1), Jump("j")]
    right.instructions += [Jump("j")]
    join.instructions += [Store(var, Reg(0)), Return(None)]
    fn.compute_edges()
    with pytest.raises(IRError):
        verify_module(IRModule(functions=[fn]))


# ----------------------------------------------------------------------
# Printer
# ----------------------------------------------------------------------


def test_format_function_mentions_blocks_and_instructions():
    module = lower(DIAMOND)
    text = format_function(module.function("f"))
    assert "func f(" in text
    assert "bb0:" in text
    assert "br " in text


def test_format_module_lists_globals():
    module = lower("int g = 3; void f() { }")
    text = format_module(module)
    assert "global @g" in text
    assert "= 3" in text


def test_format_with_addresses():
    module = lower("void f() { emit(1); }")
    text = format_function(module.function("f"), show_addresses=True)
    assert "0x0040" in text
