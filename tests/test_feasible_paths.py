"""Feasible-path correlation analysis (``--opt 3``) and its audit.

Covers both sides of the derivation — the builder's
:mod:`repro.analysis.feasible` (forward range propagation that prunes
infeasible conditional edges) and the auditor's witness-restricted
re-proof (:mod:`repro.staticcheck.feasaudit`):

* the builder's ``(lo, hi, hole)`` range algebra (join / widen /
  outcome intersection / affine images) as hypothesis properties;
* the feasible-path MFP is pointwise at least as tight as the plain
  MFP on random loop-free programs, and identical when no edge is ever
  infeasible;
* ``--opt 3`` proves strictly more BAT actions than ``--opt 2`` on the
  instrumented workloads, every gain carries ``feasible-path``
  provenance with a pruned-edge witness, and programs without prunable
  structure build byte-identically;
* corruption properties: flipping an action, deleting a load-bearing
  witness, fabricating a pruned edge, or dropping the backing BAT
  entry is always flagged by the ``FP7xx`` audit.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.alias import analyze_aliases
from repro.analysis.branch_info import OutcomeSet, analyze_branches
from repro.analysis.defs import DefinitionMap, analyze_definitions
from repro.analysis.feasible import (
    TOP,
    _edge_env,
    _env_join,
    _env_widen,
    _transfer,
    affine_image,
    analyze_feasible,
    canonical,
    edge_tables,
    from_outcome,
    intersect,
    propagate_from_edge,
    render_edge,
    summarize_blocks,
    within_outcome,
)
from repro.analysis.purity import analyze_purity
from repro.analysis.ranges import NEG_INF, POS_INF, Interval
from repro.correlation.provenance import REASON_FEASIBLE
from repro.ir.instructions import RelOp
from repro.pipeline import compile_program, compile_program_cached
from repro.staticcheck import errors_in, run_passes
from repro.staticcheck import domain
from repro.staticcheck.facts import summarize_function
from repro.staticcheck.feasaudit import _witness_rule, audit_feasible
from repro.staticcheck.mfp import solve_range_mfp
from repro.workloads import get_workload

# The first branch decides both later checks: after (n > 0) commits a
# direction, `flag` is a known constant (forcing the second branch) and
# the second branch's infeasible direction must be *pruned* before `x`
# is known at the third — the witness-bearing case.
DEMO_PRUNE = """
int flag;
int x;
void main() {
  int n = read_int();
  flag = 0;
  x = 0;
  if (n > 0) {
    flag = 1;
    x = 1;
  }
  if (flag == 1) {
    emit(1);
  } else {
    x = 9;
  }
  if (x > 1) { emit(2); } else { emit(3); }
}
"""

# A plain diamond: both arms force the same later outcome, each proof
# pruning only the target's own contradicted direction.
DEMO_PLAIN = """
int x;
void main() {
  int n = read_int();
  if (n > 0) {
    x = 5;
  } else {
    x = 7;
  }
  if (x > 0) { emit(1); } else { emit(2); }
}
"""

#: Workloads where --opt 3 proves strictly more SET entries than
#: --opt 2 (the acceptance criterion asks for at least four).
GAINING = (
    "atftpd",
    "httpd",
    "sendmail",
    "sshd",
    "sysklogd",
    "telnetd",
    "wu-ftpd",
    "xinetd",
)


def _fresh(source, name="demo"):
    program = compile_program(source, name, 3)
    tables = program.tables.by_function["main"]
    return program, tables


def _codes(program):
    return sorted({d.code for d in audit_feasible(program)})


def _feasible_records(tables):
    return [r for r in tables.provenance if r.reason == REASON_FEASIBLE]


def _shape(record):
    return (
        record.source_block,
        record.taken,
        record.action,
        record.target_block,
        record.var,
        record.implied,
        record.witness,
    )


# ----------------------------------------------------------------------
# Builder: gains, provenance shape, no-op cases
# ----------------------------------------------------------------------


def test_demo_prune_proves_the_expected_actions():
    _, tables = _fresh(DEMO_PRUNE)
    records = _feasible_records(tables)
    assert {_shape(r) for r in records} == {
        ("bb0", False, "SET_NT", "bb2", "flag", "[0, 0]", ("bb2:T", "bb5:NT")),
        ("bb0", False, "SET_T", "bb5", "x", "[9, 9]", ("bb2:T", "bb5:NT")),
        ("bb0", True, "SET_T", "bb2", "flag", "[1, 1]", ("bb2:NT", "bb5:T")),
        ("bb0", True, "SET_NT", "bb5", "x", "[1, 1]", ("bb2:NT", "bb5:T")),
        ("bb2", False, "SET_T", "bb5", "x", "[9, 9]", ("bb5:NT",)),
    }


def test_demo_plain_proves_both_arms():
    _, tables = _fresh(DEMO_PLAIN, "plain")
    records = _feasible_records(tables)
    assert {_shape(r) for r in records} == {
        ("bb0", False, "SET_T", "bb3", "x", "[7, 7]", ("bb3:NT",)),
        ("bb0", True, "SET_T", "bb3", "x", "[5, 5]", ("bb3:NT",)),
    }


def test_demo_opt3_gains_over_opt2():
    p2 = compile_program(DEMO_PRUNE, "demo", 2)
    p3 = compile_program(DEMO_PRUNE, "demo", 3)
    sets = lambda p: sum(s.set_entries for s in p.build_stats)  # noqa: E731
    gained = sum(s.feasible_sets for s in p3.build_stats)
    assert gained == 5
    assert sets(p3) == sets(p2) + gained
    assert sum(s.feasible_sets for s in p2.build_stats) == 0


def test_fresh_demos_are_audit_clean():
    for source, name in ((DEMO_PRUNE, "demo"), (DEMO_PLAIN, "plain")):
        program, _ = _fresh(source, name)
        assert _codes(program) == []
        diagnostics = errors_in(run_passes(program))
        assert diagnostics == [], [str(d) for d in diagnostics]


def test_opt3_is_identical_without_prunable_structure():
    """A single uncorrelated branch gives the analysis nothing to do."""
    source = """
    void main() {
      int n = read_int();
      if (n > 0) { emit(1); } else { emit(2); }
    }
    """
    p2 = compile_program(source, "single", 2)
    p3 = compile_program(source, "single", 3)
    t2 = p2.tables.by_function["main"]
    t3 = p3.tables.by_function["main"]
    assert dict(t2.bat) == dict(t3.bat)
    assert sum(s.feasible_sets for s in p3.build_stats) == 0
    assert _feasible_records(t3) == []


@pytest.mark.parametrize("name", GAINING)
def test_instrumented_workloads_gain_strictly_more_sets(name):
    workload = get_workload(name)
    p2 = compile_program_cached(workload.source, workload.name, 2)
    p3 = compile_program_cached(workload.source, workload.name, 3)
    s2 = sum(s.set_entries for s in p2.build_stats)
    s3 = sum(s.set_entries for s in p3.build_stats)
    gained = sum(s.feasible_sets for s in p3.build_stats)
    assert s3 > s2, f"{name}: opt3 proved {s3} sets, opt2 {s2}"
    assert s3 == s2 + gained
    records = [
        r for t in p3.tables for r in _feasible_records(t)
    ]
    assert len(records) == gained
    for record in records:
        assert record.action in ("SET_T", "SET_NT")
        assert record.witness is not None
        for edge in record.witness:
            label, sep, direction = edge.rpartition(":")
            assert sep and label and direction in ("T", "NT")


# ----------------------------------------------------------------------
# FP7xx corruption properties
# ----------------------------------------------------------------------


def _load_bearing(tables):
    """The DEMO_PRUNE records whose proof needs the pruned middle edge:
    the claims about the third branch, where deleting the witness lets
    the other arm's hostile `x` range flow into the target."""
    return [
        i
        for i, r in enumerate(tables.provenance)
        if r.reason == REASON_FEASIBLE
        and r.source_block == "bb0"
        and r.target_block == "bb5"
    ]


def _tamper(tables, index, **changes):
    records = list(tables.provenance)
    records[index] = replace(records[index], **changes)
    tables.provenance = tuple(records)
    tables._prov_index = None


def test_flipped_action_flags_fp701():
    program, tables = _fresh(DEMO_PRUNE)
    index = next(
        i
        for i, r in enumerate(tables.provenance)
        if r.reason == REASON_FEASIBLE
    )
    record = tables.provenance[index]
    flipped = "SET_NT" if record.action == "SET_T" else "SET_T"
    _tamper(tables, index, action=flipped)
    assert "FP701" in _codes(program)


def test_dropped_bat_entry_flags_fp701():
    program, tables = _fresh(DEMO_PRUNE)
    record = next(r for r in _feasible_records(tables))
    source_slot = tables.slot_of(record.source_pc)
    target_slot = tables.slot_of(record.target_pc)
    bat = dict(tables.bat)
    bat[(source_slot, record.taken)] = tuple(
        entry
        for entry in bat[(source_slot, record.taken)]
        if entry[0] != target_slot
    )
    tables.bat = bat
    assert "FP701" in _codes(program)


def test_flipped_action_with_matching_bat_flags_fp703():
    """Flipping the record *and* the BAT entry keeps FP701 quiet — the
    laundering guard must catch the now-false outcome claim."""
    from repro.correlation.actions import BranchAction

    program, tables = _fresh(DEMO_PRUNE)
    index = _load_bearing(tables)[0]
    record = tables.provenance[index]
    flipped = "SET_NT" if record.action == "SET_T" else "SET_T"
    source_slot = tables.slot_of(record.source_pc)
    target_slot = tables.slot_of(record.target_pc)
    bat = dict(tables.bat)
    bat[(source_slot, record.taken)] = tuple(
        (slot, BranchAction(flipped) if slot == target_slot else action)
        for slot, action in bat[(source_slot, record.taken)]
    )
    tables.bat = bat
    _tamper(tables, index, action=flipped)
    assert "FP703" in _codes(program)


@pytest.mark.parametrize("which", [0, 1], ids=["first", "second"])
def test_deleted_witness_flags_fp703(which):
    """Dropping a load-bearing witness cannot silently re-enact the
    prune: the other arm's range reaches the target and the claim no
    longer re-proves."""
    program, tables = _fresh(DEMO_PRUNE)
    index = _load_bearing(tables)[which]
    _tamper(tables, index, witness=())
    assert "FP703" in _codes(program)


def test_fabricated_unknown_block_witness_flags_fp702():
    program, tables = _fresh(DEMO_PRUNE)
    index = _load_bearing(tables)[0]
    record = tables.provenance[index]
    _tamper(tables, index, witness=record.witness + ("bb999:T",))
    assert "FP702" in _codes(program)


def test_fabricated_feasible_edge_witness_flags_fp702():
    """Claiming a prune on an edge that is actually feasible from the
    re-derived state must not re-prove."""
    program, tables = _fresh(DEMO_PRUNE)
    index = next(
        i
        for i, r in enumerate(tables.provenance)
        if r.reason == REASON_FEASIBLE
        and r.source_block == "bb0"
        and not r.taken
    )
    record = tables.provenance[index]
    _tamper(tables, index, witness=record.witness + ("bb2:NT",))
    assert "FP702" in _codes(program)


def test_malformed_witness_flags_fp702():
    program, tables = _fresh(DEMO_PRUNE)
    index = _load_bearing(tables)[0]
    _tamper(tables, index, witness=("garbage",))
    assert "FP702" in _codes(program)


def test_var_mismatch_flags_fp702():
    program, tables = _fresh(DEMO_PRUNE)
    index = _load_bearing(tables)[0]
    _tamper(tables, index, var="ghost")
    assert "FP702" in _codes(program)


@pytest.mark.parametrize("seed", range(8))
def test_random_feasible_record_tampering_always_flagged(seed):
    """Any mutation of a record's load-bearing fields is caught."""
    rng = random.Random(f"feas-tamper:{seed}")
    program, tables = _fresh(DEMO_PRUNE)
    indices = [
        i
        for i, r in enumerate(tables.provenance)
        if r.reason == REASON_FEASIBLE
    ]
    index = rng.choice(indices)
    record = tables.provenance[index]
    mutation = rng.choice(["action", "var", "malformed", "unknown"])
    if mutation == "action":
        flipped = "SET_NT" if record.action == "SET_T" else "SET_T"
        _tamper(tables, index, action=flipped)
    elif mutation == "var":
        _tamper(tables, index, var="ghost")
    elif mutation == "malformed":
        _tamper(tables, index, witness=record.witness + ("bb2",))
    else:
        _tamper(tables, index, witness=record.witness + ("bb999:NT",))
    assert _codes(program) != [], mutation


# ----------------------------------------------------------------------
# Hypothesis: the builder's range algebra
# ----------------------------------------------------------------------

SAMPLES = st.integers(min_value=-12, max_value=12)
BOUNDS = st.integers(min_value=-6, max_value=6)
HOLES = st.none() | st.integers(min_value=-6, max_value=6)


def _make_range(lo, hi, hole):
    return canonical(min(lo, hi), max(lo, hi), hole)


FEAS_RANGES = st.one_of(
    st.builds(_make_range, BOUNDS, BOUNDS, HOLES),
    st.builds(lambda b, hole: canonical(b, POS_INF, hole), BOUNDS, HOLES),
    st.builds(lambda b, hole: canonical(NEG_INF, b, hole), BOUNDS, HOLES),
    st.builds(lambda hole: canonical(NEG_INF, POS_INF, hole), HOLES),
)


def _contains(values, v):
    lo, hi, hole = values
    return lo <= v <= hi and v != hole


def _join(a, b):
    """The value join, as the builder's environment join does it."""
    return _env_join({0: a}, {0: b}).get(0, TOP)


def _widen(a, b):
    return _env_widen({0: a}, {0: b}).get(0, TOP)

OUTCOMES = st.builds(
    OutcomeSet.from_relop,
    st.sampled_from(list(RelOp)),
    BOUNDS,
    st.booleans(),
)


@given(a=FEAS_RANGES, b=FEAS_RANGES, v=SAMPLES)
def test_join_is_an_upper_bound(a, b, v):
    # Exact commutativity is NOT a theorem: the one-hole representation
    # may keep either operand's hole when both are excluded by both
    # sides (e.g. [0,inf]\{1} vs [-inf,0]\{-1}).  Both orders must be
    # upper bounds with the same interval hull, and idempotence holds.
    joined = _join(a, b)
    flipped = _join(b, a)
    assert joined[:2] == flipped[:2]
    assert _join(a, a) == a
    if _contains(a, v) or _contains(b, v):
        assert _contains(joined, v)
        assert _contains(flipped, v)


@given(a=FEAS_RANGES, b=FEAS_RANGES, v=SAMPLES)
def test_widen_covers_both_operands(a, b, v):
    widened = _widen(a, b)
    if _contains(a, v) or _contains(b, v):
        assert _contains(widened, v)


@given(a=FEAS_RANGES, outcome=OUTCOMES, v=SAMPLES)
def test_intersect_outcome_is_sound_and_reducing(a, outcome, v):
    refined = intersect(a, from_outcome(outcome))
    if _contains(a, v) and outcome.contains_value(v):
        assert _contains(refined, v)
    # The refinement can only shrink: one representable hole means the
    # outcome's hole may be dropped, but never anything outside `a`.
    if _contains(refined, v):
        assert _contains(a, v)


@given(a=FEAS_RANGES, outcome=OUTCOMES, v=SAMPLES)
def test_within_outcome_means_every_value_satisfies(a, outcome, v):
    if within_outcome(a, outcome) and _contains(a, v):
        assert outcome.contains_value(v)


@given(
    a=FEAS_RANGES,
    sign=st.sampled_from([1, -1]),
    offset=st.integers(min_value=-5, max_value=5),
    v=SAMPLES,
)
def test_affine_image_is_sound(a, sign, offset, v):
    if _contains(a, v):
        assert _contains(affine_image(a, sign, offset), sign * v + offset)


# ----------------------------------------------------------------------
# Hypothesis: feasible-path MFP vs plain MFP on random programs
# ----------------------------------------------------------------------

REL_OPS = ("<", "<=", ">", ">=", "==", "!=")


@st.composite
def branchy_source(draw):
    """A loop-free chain of conditionals over two globals — small
    enough that no widening triggers, rich enough to prune."""
    lines = [
        "int a;",
        "int b;",
        "void main() {",
        "  a = read_int();",
        "  b = read_int();",
    ]
    if draw(st.booleans()):
        var = draw(st.sampled_from(("a", "b")))
        lines.append(f"  {var} = {draw(BOUNDS)};")
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        var = draw(st.sampled_from(("a", "b")))
        op = draw(st.sampled_from(REL_OPS))
        bound = draw(BOUNDS)
        then_var = draw(st.sampled_from(("a", "b")))
        then_val = draw(BOUNDS)
        if draw(st.booleans()):
            else_var = draw(st.sampled_from(("a", "b")))
            else_val = draw(BOUNDS)
            lines.append(
                f"  if ({var} {op} {bound}) {{ {then_var} = {then_val}; }}"
                f" else {{ {else_var} = {else_val}; }}"
            )
        else:
            lines.append(
                f"  if ({var} {op} {bound}) {{ {then_var} = {then_val}; }}"
            )
    final_op = draw(st.sampled_from(REL_OPS))
    lines.append(
        f"  if (a {final_op} {draw(BOUNDS)}) {{ emit(1); }}"
        f" else {{ emit(2); }}"
    )
    lines.append("}")
    return "\n".join(lines)


@st.composite
def unprunable_source(draw):
    """Every branch tests its own fresh, once-used input: no condition
    can ever contradict the propagated state, so no edge is infeasible
    and pruning must change nothing at all."""
    n = draw(st.integers(min_value=2, max_value=4))
    names = [f"v{i}" for i in range(n)]
    lines = [f"int {name};" for name in names] + ["int c;", "void main() {"]
    lines += [f"  {name} = read_int();" for name in names]
    lines.append("  c = 0;")
    for name in names[:-1]:
        op = draw(st.sampled_from(REL_OPS))
        lines.append(
            f"  if ({name} {op} {draw(BOUNDS)}) {{ c = {draw(BOUNDS)}; }}"
        )
    final_op = draw(st.sampled_from(REL_OPS))
    lines.append(
        f"  if ({names[-1]} {final_op} {draw(BOUNDS)}) {{ emit(1); }}"
        f" else {{ emit(2); }}"
    )
    lines.append("}")
    return "\n".join(lines)


def _builder_context(source):
    program = compile_program(source, "prop", 0)
    module = program.module
    analyze_aliases(module)
    purity = analyze_purity(module)
    fn = next(f for f in module.functions if f.name == "main")
    def_map, _ = analyze_definitions(fn, module, purity)
    facts_by_pc = analyze_branches(fn, def_map)
    slots = {}
    programs = summarize_blocks(fn, def_map, slots)
    return fn, def_map, facts_by_pc, programs, edge_tables(facts_by_pc, slots)


def _range_subset(a, b):
    """Is range ``a`` contained in ``b``?  (Both sides keep a range as
    the same ``(lo, hi, hole)`` interval-with-hole tuple.)"""
    if a[0] > a[1]:
        return True
    if b[0] > b[1]:
        return False
    if not Interval(a[0], a[1]).subsumes(Interval(b[0], b[1])):
        return False
    return b[2] is None or not _contains(a, b[2])


def _env_subset(tight, loose, top):
    for var in set(tight) | set(loose):
        if not _range_subset(tight.get(var, top), loose.get(var, top)):
            return False
    return True


@settings(max_examples=25, deadline=None)
@given(source=branchy_source())
def test_pruned_mfp_is_at_least_as_tight_as_plain(source):
    fn, _, _, programs, tables = _builder_context(source)
    for block in fn.blocks:
        if not block.ends_in_cond_branch():
            continue
        for taken in (True, False):
            pruned = propagate_from_edge(
                programs, tables, block.label, taken, prune=True
            )
            plain = propagate_from_edge(
                programs, tables, block.label, taken, prune=False
            )
            assert (pruned is None) == (plain is None)
            if pruned is None:
                continue
            pruned_states, pruned_edges = pruned
            plain_states, _ = plain
            assert set(pruned_states) <= set(plain_states)
            for label, env in pruned_states.items():
                assert _env_subset(
                    env, plain_states[label], TOP
                ), (block.label, taken, label)
            # Every claimed prune re-proves from the returned fixpoint.
            for label, direction in pruned_edges:
                env_out, snapshots = _transfer(
                    programs[label], pruned_states[label]
                )
                assert (
                    _edge_env(tables.get(label), env_out, snapshots, direction)
                    is None
                )


def _refused_at_fixpoint(programs, tables, states):
    """Every reached branch direction whose edge ranges refuse the
    fixpoint state, recomputed from scratch."""
    refused = set()
    for label, env_in in states.items():
        program = programs[label]
        if program.branch_pc is None:
            continue
        env_out, snapshots = _transfer(program, env_in)
        for direction in (True, False):
            if _edge_env(tables.get(label), env_out, snapshots, direction) is None:
                refused.add((label, direction))
    return refused


@settings(max_examples=25, deadline=None)
@given(source=branchy_source())
def test_pruned_set_is_exactly_the_refused_reached_directions(source):
    """The pruned set read off each block's last visit is the set of
    reached branch directions refused at the returned fixpoint: every
    prune re-proves, and no refused direction goes unreported."""
    fn, _, _, programs, tables = _builder_context(source)
    for block in fn.blocks:
        if not block.ends_in_cond_branch():
            continue
        for taken in (True, False):
            result = propagate_from_edge(programs, tables, block.label, taken)
            if result is None:
                continue
            states, pruned_edges = result
            expected = _refused_at_fixpoint(programs, tables, states)
            assert pruned_edges <= expected, (block.label, taken)
            assert expected <= pruned_edges, (block.label, taken)


@settings(max_examples=25, deadline=None)
@given(source=unprunable_source())
def test_pruning_changes_nothing_without_infeasible_edges(source):
    fn, _, _, programs, tables = _builder_context(source)
    for block in fn.blocks:
        if not block.ends_in_cond_branch():
            continue
        for taken in (True, False):
            pruned = propagate_from_edge(
                programs, tables, block.label, taken, prune=True
            )
            plain = propagate_from_edge(
                programs, tables, block.label, taken, prune=False
            )
            assert (pruned is None) == (plain is None)
            if pruned is None:
                continue
            assert pruned[1] == set()
            assert pruned[0] == plain[0]


@settings(max_examples=25, deadline=None)
@given(source=branchy_source())
def test_findings_witness_the_fixpoint_pruned_set(source):
    fn, def_map, facts_by_pc, programs, tables = _builder_context(source)
    label_of_pc = {
        program.branch_pc: program.label
        for program in programs.values()
        if program.branch_pc is not None
    }
    analysis = analyze_feasible(fn, def_map, facts_by_pc)
    for (source_pc, taken), per_target in analysis.findings.items():
        result = propagate_from_edge(
            programs, tables, label_of_pc[source_pc], taken
        )
        assert result is not None
        _, pruned_edges = result
        expected = tuple(
            sorted(render_edge(label, d) for label, d in pruned_edges)
        )
        for finding in per_target.values():
            assert finding.witness == expected


@settings(max_examples=25, deadline=None)
@given(source=branchy_source())
def test_witness_restricted_mfp_bounds_the_audit_mfp(source):
    """With an empty witness the auditor's relaxed solver must cover
    everything the pruning solver derives (it never drops an edge)."""
    source_program = compile_program(source, "prop", 0)
    module = source_program.module
    analyze_aliases(module)
    purity = analyze_purity(module)
    fn = next(f for f in module.functions if f.name == "main")
    def_map = DefinitionMap(fn, module, purity)
    summaries = summarize_function(fn, def_map)
    entry = fn.blocks[0].label
    strict = solve_range_mfp(summaries, {entry: {}})
    relaxed = solve_range_mfp(summaries, {entry: {}}, _witness_rule(set()))
    assert set(strict) <= set(relaxed)
    for label, env in strict.items():
        assert _env_subset(env, relaxed[label], domain.TOP), label
