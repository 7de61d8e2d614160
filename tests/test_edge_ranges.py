"""The per-direction ranges both range fixpoints intersect with.

Each side builds them once per function from its own facts: the
builder's edge tables (:func:`repro.analysis.feasible.edge_tables`, from
:mod:`repro.analysis.branch_info`) and the auditor's
``BlockSummary.edge_values`` (:mod:`repro.staticcheck.facts`).  Every
stored range must equal the one a visit used to rebuild from the
outcome set: ``from_outcome(outcome_set(direction))``.
"""

import pytest

from repro.analysis.alias import analyze_aliases
from repro.analysis.branch_info import OutcomeSet, analyze_branches
from repro.analysis.defs import DefinitionMap, analyze_definitions
from repro.analysis.feasible import FeasRange, edge_tables
from repro.analysis.purity import analyze_purity
from repro.pipeline import compile_program_cached
from repro.staticcheck.domain import ValueSet
from repro.staticcheck.facts import summarize_function
from repro.workloads import all_workloads

DIRECTIONS = (True, False)


def _functions(workload, opt_level):
    program = compile_program_cached(workload.source, workload.name, opt_level)
    module = program.module
    analyze_aliases(module)
    purity = analyze_purity(module)
    for fn in module.functions:
        yield fn, module, purity


@pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
def test_builder_edge_tables_equal_fresh_outcome_ranges(opt_level):
    checked = 0
    for workload in all_workloads():
        for fn, module, purity in _functions(workload, opt_level):
            def_map, _ = analyze_definitions(fn, module, purity)
            facts_by_pc = analyze_branches(fn, def_map)
            tables = edge_tables(facts_by_pc)
            assert set(tables) == {f.block_label for f in facts_by_pc.values()}
            for facts in facts_by_pc.values():
                for taken in DIRECTIONS:
                    check, implied = tables[facts.block_label][taken]
                    if facts.check is None:
                        assert check is None
                    else:
                        fresh = OutcomeSet.from_relop(
                            facts.check.op, facts.check.bound, taken
                        )
                        assert check == (
                            facts.check.load_index,
                            FeasRange.from_outcome(fresh),
                        )
                    expected = []
                    for inference in facts.inferences:
                        fresh = OutcomeSet.from_relop(
                            inference.op, inference.bound, taken
                        )
                        assert inference.implied_set(taken) == fresh
                        if not fresh.is_trivial:
                            expected.append(
                                (inference.var, FeasRange.from_outcome(fresh))
                            )
                    assert implied == tuple(expected)
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
def test_auditor_edge_values_equal_fresh_outcome_ranges(opt_level):
    checked = 0
    for workload in all_workloads():
        for fn, module, purity in _functions(workload, opt_level):
            summaries = summarize_function(fn, DefinitionMap(fn, module, purity))
            for summary in summaries.values():
                if summary.branch_pc is None:
                    assert summary.edge_values == {}
                    continue
                for taken in DIRECTIONS:
                    check, constraints = summary.edge_values[taken]
                    if summary.check is None:
                        assert check is None
                    else:
                        fresh = OutcomeSet.from_relop(
                            summary.check.op, summary.check.bound, taken
                        )
                        assert check == (
                            summary.check.term,
                            ValueSet.from_outcome(fresh),
                        )
                    assert constraints == tuple(
                        (var, ValueSet.from_outcome(outcome))
                        for var, outcome in summary.constraints[taken]
                    )
                    checked += 1
    assert checked > 0
