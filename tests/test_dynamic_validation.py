"""Dynamic validation of the static branch analysis.

Two properties tie the compiler's claims to real executions of random
programs:

1. **Check soundness** — for every executed conditional branch with a
   check predicate, the actual direction equals the predicate applied
   to the value its terminal load produced (the affine-chain solving is
   exact).
2. **Inference soundness** — immediately after a branch commits, the
   memory value of each inference variable lies inside the interval the
   taken direction implies (the clean-gap rule really does guarantee
   the register still mirrors memory).

Together these are the dynamic counterpart of the zero-FP theorem: any
bug in chain solving, outcome sets, or gap checking shows up here.

Both watch the execution from the observer bus.  Their observers
define ``on_instruction`` and no batch hook, so the bus delivers each
instruction right after it commits, with the address it touched, and
each branch outcome as a :class:`BranchEvent` just before the branch
itself.
"""

from hypothesis import HealthCheck, given, settings

from repro.analysis import (
    analyze_aliases,
    analyze_branches,
    analyze_definitions,
    analyze_purity,
)
from repro.interp import Interpreter, RunStatus
from repro.ir import Load, lower_program
from repro.lang import parse_program
from repro.runtime import ExecutionObserver
from repro.staticcheck.irverify import verify_module

from .test_zero_false_positives import INPUT_STREAMS, programs


def collect_facts(module):
    analyze_aliases(module)
    purity = analyze_purity(module)
    facts = {}
    for fn in module.functions:
        def_map, _ = analyze_definitions(fn, module, purity)
        for pc, branch_facts in analyze_branches(fn, def_map).items():
            facts[pc] = branch_facts
            if branch_facts.check is not None:
                block = fn.block(branch_facts.block_label)
                load = block.instructions[branch_facts.check.load_index]
                assert isinstance(load, Load)
                facts[pc] = (branch_facts, load)
            else:
                facts[pc] = (branch_facts, None)
    return facts


def committed_count(result):
    """Instructions delivered: a faulting division counts as a step
    but is never delivered."""
    return result.steps - (result.status is RunStatus.DIV_BY_ZERO)


class PredicateWatch(ExecutionObserver):
    """Checks each check predicate against the value its load read."""

    def __init__(self, facts):
        self.facts = facts
        self.memory = None
        self.instructions = 0
        self.last_load_value = {}
        self.violations = []

    def on_instruction(self, instruction, touched):
        self.instructions += 1
        if isinstance(instruction, Load):
            # The load left memory as it found it.
            self.last_load_value[id(instruction)] = self.memory.read(touched)

    def on_branch(self, event):
        entry = self.facts.get(event.pc)
        if entry is None:
            return
        branch_facts, load = entry
        if load is not None and id(load) in self.last_load_value:
            value = self.last_load_value[id(load)]
            predicted = branch_facts.check.outcome_for_value(value)
            if predicted != event.taken:
                self.violations.append((event.pc, value, predicted, event.taken))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), inputs=INPUT_STREAMS)
def test_check_predicates_match_execution(source, inputs):
    module = lower_program(parse_program(source))
    verify_module(module)
    watch = PredicateWatch(collect_facts(module))
    interpreter = Interpreter(
        module,
        inputs=inputs,
        step_limit=20_000,
        observers=[watch],
    )
    watch.memory = interpreter.memory
    result = interpreter.run()
    assert watch.instructions == committed_count(result)
    assert not watch.violations, (source, watch.violations)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), inputs=INPUT_STREAMS)
def test_inference_ranges_hold_at_commit(source, inputs):
    module = lower_program(parse_program(source))
    verify_module(module)
    facts = collect_facts(module)
    violations = []

    class BranchWatch(ExecutionObserver):
        def on_branch(self, event):
            entry = facts.get(event.pc)
            if entry is None:
                return
            branch_facts, _ = entry
            frames = interpreter.live_activations()
            frame_base = frames[-1][1] if frames else None
            for inference in branch_facts.inferences:
                implied = inference.implied_set(event.taken)
                try:
                    address = interpreter.memory.address_of(
                        inference.var, frame_base
                    )
                except KeyError:
                    continue
                value = interpreter.memory.read(address)
                if not implied.contains_value(value):
                    violations.append(
                        (event.pc, inference.var.name, value, str(implied))
                    )

    interpreter = Interpreter(
        module, inputs=inputs, step_limit=20_000, observers=[BranchWatch()]
    )
    interpreter.run()
    assert not violations, (source, violations)
