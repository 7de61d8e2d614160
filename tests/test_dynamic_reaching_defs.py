"""Dynamic validation of reaching definitions.

Property: when a direct load executes and the last dynamic writer of
its variable was a direct store *in the same function activation*, that
store's static definition site must be in the load's reaching set.
(Writers from other activations, indirect stores, initial values and
call-internal writes are attributed differently and skipped — the
direct-store case is the one the store-correlation rule of Fig. 5
consumes.)

The property watches the execution from the observer bus: its observer
defines ``on_instruction`` and no batch hook, so it sees each
instruction right after it commits, with the address it touched.
"""

from typing import Dict, Optional, Tuple

from hypothesis import HealthCheck, given, settings

from repro.analysis import analyze_aliases, analyze_definitions, analyze_purity
from repro.interp import Interpreter, RunStatus
from repro.ir import Load, Store, StoreIndirect, lower_program
from repro.lang import parse_program
from repro.runtime import ExecutionObserver

from .test_zero_false_positives import INPUT_STREAMS, programs


def positions(module):
    """Map id(instruction) -> (fn name, block label, index)."""
    table = {}
    for fn in module.functions:
        for block in fn.blocks:
            for index, instruction in enumerate(block.instructions):
                table[id(instruction)] = (fn.name, block.label, index)
    return table


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), inputs=INPUT_STREAMS)
def test_dynamic_writers_are_statically_reaching(source, inputs):
    module = lower_program(parse_program(source))
    analyze_aliases(module)
    purity = analyze_purity(module)
    position_of = positions(module)
    reaching_by_fn = {}
    for fn in module.functions:
        reaching_by_fn[fn.name] = analyze_definitions(fn, module, purity)

    # last_writer[address] = (kind, fn name, frame_base, block, index)
    last_writer: Dict[int, Optional[Tuple]] = {}
    violations = []
    seen = []

    class WriterWatch(ExecutionObserver):
        def on_instruction(self, instruction, address):
            seen.append(instruction)
            if isinstance(instruction, StoreIndirect):
                last_writer[address] = ("indirect",)
                return
            if not isinstance(instruction, (Store, Load)):
                return
            frame_base = interpreter.live_activations()[-1][1]
            fn_name, block, index = position_of[id(instruction)]
            if isinstance(instruction, Store):
                last_writer[address] = ("store", fn_name, frame_base, block, index)
                return
            writer = last_writer.get(address)
            if writer is not None and writer[0] == "store":
                _, w_fn, w_base, w_block, w_index = writer
                if w_fn == fn_name and w_base == frame_base:
                    def_map, reaching = reaching_by_fn[fn_name]
                    matching = [
                        site
                        for site in def_map.at(w_block, w_index)
                        if site.var == instruction.var
                    ]
                    live = reaching.reaching(block, index)
                    if matching and not any(s in live for s in matching):
                        violations.append(
                            (fn_name, w_block, w_index, block, index)
                        )

    interpreter = Interpreter(
        module,
        inputs=inputs,
        step_limit=20_000,
        observers=[WriterWatch()],
    )
    result = interpreter.run()
    # A faulting division counts as a step but is never delivered.
    assert len(seen) == result.steps - (result.status is RunStatus.DIV_BY_ZERO)
    assert not violations, (source, violations)
