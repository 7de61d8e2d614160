"""Unit tests for the static detectability prover (DET8xx).

Small programs with hand-checkable continuations pin each layer: the
value-region partition, callee totality, branch relevance, the
``(known, taken)`` BSV bit algebra against per-slot statuses, the
must-alarm walk semantics, point verdicts on the twin-check diamond,
and the aggregated ``repro predict`` diagnostics.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.alias import analyze_aliases
from repro.analysis.purity import analyze_purity
from repro.correlation.actions import BranchAction, BranchStatus
from repro.ir.instructions import RelOp
from repro.pipeline import compile_program
from repro.staticcheck import detectability, run_passes
from repro.staticcheck.detectability import (
    POSSIBLY_DETECTED,
    PROVEN_DETECTED,
    PROVEN_UNDETECTED,
    DetectabilityAnalysis,
    ValueRegion,
    compute_branch_relevance,
    compute_callee_facts,
    value_regions,
)

# v is checked twice without an intervening store: tampering between
# the checks with a value on the other side of the bound must alarm at
# the second check on every continuation.
TWIN_SOURCE = """
int v;
void main() {
    v = read_int();
    if (v > 5) { emit(1); } else { emit(2); }
    if (v > 5) { emit(3); } else { emit(4); }
}
"""


def analysis_for(source, opt_level=0):
    program = compile_program(source, opt_level=opt_level)
    analyze_aliases(program.module)
    purity = analyze_purity(program.module)
    return program, DetectabilityAnalysis(program, purity)


def global_named(program, name):
    return next(g for g in program.module.globals if g.name == name)


# ----------------------------------------------------------------------
# value_regions
# ----------------------------------------------------------------------


def test_value_regions_no_checks_is_one_unbounded_region():
    regions = value_regions(())
    assert regions == (ValueRegion(None, None, 0),)


def test_value_regions_partition_is_outcome_constant_and_total():
    checks = ((RelOp.GT, 5), (RelOp.EQ, 0))
    regions = value_regions(checks)
    # Totality and order: the cells tile the sampled integers.
    lo_bound, hi_bound = -10, 20
    covered = sorted(
        value
        for region in regions
        for value in range(
            lo_bound if region.lo is None else max(region.lo, lo_bound),
            (hi_bound if region.hi is None else min(region.hi, hi_bound))
            + 1,
        )
    )
    assert covered == list(range(lo_bound, hi_bound + 1))
    # Constancy: every value in a cell agrees with its representative.
    for region in regions:
        rep = tuple(op.evaluate(region.representative, b) for op, b in checks)
        lo = region.representative - 3 if region.lo is None else region.lo
        hi = region.representative + 3 if region.hi is None else region.hi
        for value in range(lo, hi + 1):
            assert (
                tuple(op.evaluate(value, b) for op, b in checks) == rep
            ), (region, value)
    # Maximality: merged neighbours would disagree.
    for left, right in zip(regions, regions[1:]):
        assert tuple(
            op.evaluate(left.representative, b) for op, b in checks
        ) != tuple(op.evaluate(right.representative, b) for op, b in checks)


# ----------------------------------------------------------------------
# callee totality and branch relevance
# ----------------------------------------------------------------------


def test_callee_totality_strikes_loops_and_division():
    source = """
    int a;
    void straight() { a = 1; }
    void looping() {
        int i = 0;
        while (i < 3) { i = i + 1; }
    }
    void dividing(int n) { a = 10 / n; }
    void calls_looping() { looping(); }
    void main() {
        straight();
        calls_looping();
        dividing(2);
        if (a > 0) { emit(1); } else { emit(2); }
    }
    """
    program = compile_program(source)
    purity = analyze_purity(program.module)
    facts = compute_callee_facts(program.module.functions, purity)
    assert facts["straight"].total
    assert not facts["looping"].total  # CFG cycle
    assert not facts["dividing"].total  # faultable division
    assert not facts["calls_looping"].total  # transitive
    assert facts["straight"].may_write_var(global_named(program, "a"))


def test_branch_relevance_tracks_dataflow_not_mere_mention():
    source = """
    int used;
    int logged;
    void main() {
        used = read_int();
        logged = read_int();
        emit(logged);
        int copy = used + 1;
        if (copy > 3) { emit(1); } else { emit(2); }
    }
    """
    program = compile_program(source)
    relevance = compute_branch_relevance(program.module.functions)
    assert not relevance.everything
    assert relevance.relevant(global_named(program, "used"))
    # logged flows to emit() only, never to a branch condition.
    assert not relevance.relevant(global_named(program, "logged"))


def test_branch_relevance_crosses_call_boundaries():
    source = """
    int g;
    int echo(int x) { return x; }
    void main() {
        g = read_int();
        int r = echo(g);
        if (r > 0) { emit(1); } else { emit(2); }
    }
    """
    program = compile_program(source)
    relevance = compute_branch_relevance(program.module.functions)
    assert relevance.relevant(global_named(program, "g"))


# ----------------------------------------------------------------------
# BSV knowledge as (known, taken) bits, against the per-slot statuses
# ----------------------------------------------------------------------

# The reference: BSV knowledge as a map from slot to a definite
# BranchStatus (absent slots are UNKNOWN), updated one BAT entry at a
# time by BranchAction.apply, as the runtime's BSV is.

SLOTS = st.one_of(st.integers(0, 3), st.integers(60, 70))
KNOWLEDGE = st.dictionaries(
    SLOTS, st.sampled_from([BranchStatus.TAKEN, BranchStatus.NOT_TAKEN])
)
ACTION = st.sampled_from(list(BranchAction))


@st.composite
def action_lists(draw):
    """A BAT list with one slot written up to three more times, so
    repeated writes (the last one wins) are common."""
    actions = draw(st.lists(st.tuples(SLOTS, ACTION), max_size=5))
    slot = draw(SLOTS)
    for _ in range(draw(st.integers(0, 3))):
        actions.insert(
            draw(st.integers(0, len(actions))), (slot, draw(ACTION))
        )
    return tuple(actions)


def as_bits(knowledge):
    known = taken = 0
    for slot, status in knowledge.items():
        known |= 1 << slot
        if status is BranchStatus.TAKEN:
            taken |= 1 << slot
    return known, taken


def reference_apply(knowledge, actions):
    updated = dict(knowledge)
    for slot, action in actions:
        updated[slot] = action.apply(
            updated.get(slot, BranchStatus.UNKNOWN)
        )
    return {
        slot: status
        for slot, status in updated.items()
        if status is not BranchStatus.UNKNOWN
    }


class OnePlan:
    """Tables with a single branch: ``branch_plan`` of its PC."""

    PC = 0x40

    def __init__(self, plan):
        self._plan = plan

    def branch_plan(self, pc):
        return self._plan if pc == self.PC else None


@given(a=KNOWLEDGE, b=KNOWLEDGE)
def test_meet_keeps_the_slots_both_sides_agree_on(a, b):
    agreed = {
        slot: status for slot, status in a.items() if b.get(slot) is status
    }
    assert detectability._meet(as_bits(a), as_bits(b)) == as_bits(agreed)


@settings(max_examples=300)
@given(
    knowledge=KNOWLEDGE,
    slot=SLOTS,
    checked=st.booleans(),
    taken_actions=action_lists(),
    not_taken_actions=action_lists(),
)
@example(
    knowledge={1: BranchStatus.TAKEN, 2: BranchStatus.NOT_TAKEN},
    slot=1,
    checked=True,
    taken_actions=(
        (2, BranchAction.SET_T),
        (2, BranchAction.NC),
        (1, BranchAction.SET_UN),
        (2, BranchAction.SET_NT),
        (64, BranchAction.SET_T),
    ),
    not_taken_actions=(
        (1, BranchAction.SET_NT),
        (1, BranchAction.SET_UN),
        (1, BranchAction.SET_T),
        (3, BranchAction.NC),
    ),
)
def test_branch_step_verifies_then_applies(
    knowledge, slot, checked, taken_actions, not_taken_actions
):
    status = knowledge.get(slot, BranchStatus.UNKNOWN)
    expected = (
        status is BranchStatus.TAKEN
        if checked and status is not BranchStatus.UNKNOWN
        else None
    )
    tables = OnePlan((slot, checked, taken_actions, not_taken_actions))
    bits = as_bits(knowledge)
    assert detectability._branch_step(tables, OnePlan.PC, bits) == (
        expected,
        as_bits(reference_apply(knowledge, taken_actions)),
        as_bits(reference_apply(knowledge, not_taken_actions)),
    )
    # A PC the tables do not plan is unchecked and fires no action.
    assert detectability._branch_step(tables, OnePlan.PC + 1, bits) == (
        None,
        bits,
        bits,
    )


# ----------------------------------------------------------------------
# point verdicts on the twin diamond
# ----------------------------------------------------------------------


@pytest.mark.parametrize("opt", [0, 2])
def test_twin_diamond_point_verdicts(opt):
    program, analysis = analysis_for(TWIN_SOURCE, opt_level=opt)
    var = global_named(program, "v")
    fn = program.module.function("main")
    labels = [block.label for block in fn.blocks]
    # The two arm blocks of the first diamond sit between the checks.
    arm_taken, arm_nottaken = labels[1], labels[2]
    # Tampering in the taken arm (v > 5 was remembered TAKEN) with a
    # value that fails the second check must alarm: DET801.
    verdict, witness = analysis.point_verdict(var, "main", arm_taken, 0)
    assert (verdict, witness) == (PROVEN_DETECTED, ())
    # ... and symmetrically for the other arm and direction.
    verdict, _ = analysis.point_verdict(var, "main", arm_nottaken, 9)
    assert verdict == PROVEN_DETECTED
    # A value that agrees with the remembered direction never alarms,
    # but silence is not *proven* (the walk ends in a clean return):
    # the verdict stays DET802 with an escaping-path witness.
    verdict, witness = analysis.point_verdict(var, "main", arm_taken, 9)
    assert verdict == POSSIBLY_DETECTED
    assert witness, "DET802 must carry an escaping-path witness"


def test_entry_block_tamper_is_killed_by_the_store():
    # At the entry block the `v = read_int()` store still lies ahead:
    # it overwrites the tampered value, so no proof exists.
    program, analysis = analysis_for(TWIN_SOURCE)
    var = global_named(program, "v")
    entry = program.module.function("main").entry.label
    verdict, _ = analysis.point_verdict(var, "main", entry, 0)
    assert verdict == POSSIBLY_DETECTED


def test_never_branched_global_is_proven_undetected_everywhere():
    source = """
    int counter;
    void main() {
        counter = counter + 1;
        int v = read_int();
        if (v > 5) { emit(1); } else { emit(2); }
    }
    """
    program, analysis = analysis_for(source)
    var = global_named(program, "counter")
    for block in program.module.function("main").blocks:
        for value in (-1, 0, 7):
            verdict, _ = analysis.point_verdict(
                var, "main", block.label, value
            )
            assert verdict == PROVEN_UNDETECTED


def test_attack_verdict_unknown_function_is_possible():
    program, analysis = analysis_for(TWIN_SOURCE)
    var = global_named(program, "v")
    verdict, witness = analysis.attack_verdict(
        var, 0, 0, [("nosuch", "bb0", 0)], None
    )
    assert verdict == POSSIBLY_DETECTED
    assert witness == ("unknown-function:nosuch",)


# ----------------------------------------------------------------------
# when a walk stops: the cap, cycles, and frame chaining
# ----------------------------------------------------------------------

# v's twin checks with a counting loop between them: every exit from
# the loop reaches the second check.
LOOP_SOURCE = """
int v;
void main() {
    v = read_int();
    if (v > 5) { emit(1); } else { emit(2); }
    int i = 0;
    while (i < 3) { i = i + 1; }
    if (v > 5) { emit(3); } else { emit(4); }
}
"""

# Two helpers of the same shape after the twin checks: ``quiet`` only
# returns; ``noisy`` also writes v on its taken arm.  The walk pops the
# fallthrough (the return) first, so the write is seen only after the
# first non-alarm terminal.
FRAMES_SOURCE = """
int v;
int w;
void quiet() {
    if (w > 0) { emit(5); }
    emit(7);
}
void noisy() {
    if (w > 0) { v = 1; }
    emit(7);
}
void main() {
    v = read_int();
    w = read_int();
    if (v > 5) { emit(1); } else { emit(2); }
    if (v > 5) { emit(3); } else { emit(4); }
    quiet();
    noisy();
}
"""


def test_state_cap_escapes_even_when_every_path_alarms(monkeypatch):
    # From the taken arm with value 0 the only path alarms at the second
    # check, but the walk's graph (arm, join, alarm) exceeds a cap of 2.
    monkeypatch.setattr(detectability, "MAX_WALK_STATES", 2)
    program, analysis = analysis_for(TWIN_SOURCE)
    var = global_named(program, "v")
    arm_taken = program.module.function("main").blocks[1].label
    assert analysis.point_verdict(var, "main", arm_taken, 0) == (
        POSSIBLY_DETECTED,
        ("escape:state-cap",),
    )


def test_loop_whose_every_exit_alarms_escapes_as_a_loop():
    program, analysis = analysis_for(LOOP_SOURCE)
    var = global_named(program, "v")
    arm_taken = program.module.function("main").blocks[1].label
    assert analysis.point_verdict(var, "main", arm_taken, 0) == (
        POSSIBLY_DETECTED,
        ("escape:loop",),
    )


def test_attack_verdict_chains_frames_through_clean_returns():
    # Frames are outer -> inner resume points; the outer one sits in
    # the twin's taken arm, where value 0 must alarm.
    program, analysis = analysis_for(FRAMES_SOURCE)
    var = global_named(program, "v")
    outer = ("main", program.module.function("main").blocks[1].label, 0)

    def inner(name):
        return (name, program.module.function(name).entry.label, 0)

    assert analysis.attack_verdict(
        var, 0, 0, [outer, inner("quiet")], None
    ) == (PROVEN_DETECTED, ())
    # noisy's return is its first escaping terminal, so it is also the
    # witness; the write popped after it still breaks the chain.
    verdict, witness = analysis.attack_verdict(
        var, 0, 0, [outer, inner("noisy")], None
    )
    assert verdict == POSSIBLY_DETECTED
    assert witness[-1] == "return"


# ----------------------------------------------------------------------
# the aggregated pass (repro predict plumbing)
# ----------------------------------------------------------------------


def test_predict_pass_emits_det_notes_with_counts():
    program = compile_program(TWIN_SOURCE)
    diagnostics = run_passes(program, ("detectability",))
    codes = {d.code for d in diagnostics}
    assert PROVEN_DETECTED in codes
    assert all(d.code.startswith("DET8") for d in diagnostics)
    assert all(d.severity.value == "note" for d in diagnostics)


def test_predict_pass_det803_for_irrelevant_global():
    source = """
    int shadow;
    void main() {
        shadow = read_int();
        int v = read_int();
        if (v > 5) { emit(1); } else { emit(2); }
    }
    """
    program = compile_program(source)
    diagnostics = run_passes(program, ("detectability",))
    det803 = [d for d in diagnostics if d.code == PROVEN_UNDETECTED]
    assert any("shadow" in d.message for d in det803)


@pytest.mark.parametrize("opt", [0, 3])
def test_report_is_deterministic(opt):
    program, analysis = analysis_for(TWIN_SOURCE, opt_level=opt)
    first = [
        (p.variable, p.function, p.block, p.region, p.verdict)
        for p in analysis.report()
    ]
    _, again = analysis_for(TWIN_SOURCE, opt_level=opt)
    second = [
        (p.variable, p.function, p.block, p.region, p.verdict)
        for p in again.report()
    ]
    assert first == second
