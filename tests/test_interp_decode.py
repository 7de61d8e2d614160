"""The interpreter's decoded form: where it lives and when it goes.

A module is decoded on its first run and the form is cached on it.  It
is derived data, so it must never leak: pickling and copying skip it,
and re-finalizing a module drops it, because the opt pipeline rewrites
modules in place.  Decoding also rejects a register that may be read
before it is written, which the slot model could not otherwise catch.
"""

import copy
import pickle
import random
import sys
import threading

import pytest

from repro.interp import Interpreter, InterpreterError
from repro.ir import (
    BasicBlock,
    CondBranch,
    Const,
    IRFunction,
    IRModule,
    Jump,
    Reg,
    RelOp,
    Return,
    Store,
    Variable,
    VarKind,
    lower_program,
)
from repro.lang import parse_program
from repro.opt import optimize_module
from repro.pipeline import compile_program
from repro.workloads import all_workloads

WORKLOADS = all_workloads()


def _inputs(workload):
    return workload.make_inputs(random.Random(f"decode:{workload.name}"))


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_running_leaves_the_pickled_program_unchanged(workload):
    program = compile_program(workload.source, workload.name)
    before = pickle.dumps(program)
    result = Interpreter(program.module, inputs=_inputs(workload)).run()
    assert "_decoded" in program.module.__dict__
    assert pickle.dumps(program) == before
    loaded = pickle.loads(before)
    assert "_decoded" not in loaded.module.__dict__
    assert Interpreter(loaded.module, inputs=_inputs(workload)).run() == result


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_refinalized_module_runs_like_a_fresh_compile(workload):
    module = lower_program(parse_program(workload.source, workload.name))
    inputs = _inputs(workload)
    Interpreter(module, inputs=inputs).run()
    optimize_module(module)  # rewrites the module in place, then finalizes
    assert "_decoded" not in module.__dict__

    fresh = lower_program(parse_program(workload.source, workload.name))
    optimize_module(fresh)
    assert (
        Interpreter(module, inputs=inputs).run()
        == Interpreter(fresh, inputs=inputs).run()
    )


def test_copies_do_not_share_the_decoded_form():
    workload = WORKLOADS[0]
    program = compile_program(workload.source, workload.name)
    result = Interpreter(program.module, inputs=_inputs(workload)).run()
    clone = copy.deepcopy(program.module)
    assert "_decoded" not in clone.__dict__
    assert Interpreter(clone, inputs=_inputs(workload)).run() == result


def test_threads_decoding_one_module_agree():
    workload = WORKLOADS[1]
    inputs = _inputs(workload)
    reference = Interpreter(
        compile_program(workload.source, workload.name).module, inputs=inputs
    ).run()
    module = compile_program(workload.source, workload.name).module
    results = [None] * 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda i=i: results.__setitem__(
                    i, Interpreter(module, inputs=inputs).run()
                )
            )
            for i in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [reference] * len(results)


def _diamond(define_on_both_arms: bool) -> IRModule:
    """entry branches to l or r; l defines t0 (r too, if asked); the
    join stores t0."""
    fn = IRFunction("main", [], returns_value=False)
    entry = fn.add_block(BasicBlock("e"))
    left = fn.add_block(BasicBlock("l"))
    right = fn.add_block(BasicBlock("r"))
    join = fn.add_block(BasicBlock("j"))
    var = Variable("v", VarKind.LOCAL, 1, 1)
    fn.locals.append(var)
    entry.instructions += [
        Const(Reg(9), 0),
        CondBranch(Reg(9), RelOp.NE, 0, "l", "r"),
    ]
    left.instructions += [Const(Reg(0), 1), Jump("j")]
    right.instructions += [Jump("j")]
    if define_on_both_arms:
        join.instructions.insert(0, Const(Reg(0), 2))
    join.instructions += [Store(var, Reg(0)), Return(None)]
    module = IRModule(functions=[fn])
    module.finalize()
    return module


def test_decode_rejects_a_register_read_before_it_is_written():
    # The taken arm never runs, so t0 would be read unwritten.
    with pytest.raises(InterpreterError, match="t0 may be read before"):
        Interpreter(_diamond(define_on_both_arms=False)).run()
    assert Interpreter(_diamond(define_on_both_arms=True)).run().ok


def test_call_depth_limit_must_admit_the_entry_frame():
    module = lower_program(parse_program("void main() { }"))
    with pytest.raises(ValueError):
        Interpreter(module, call_depth_limit=0)
    assert Interpreter(module, call_depth_limit=1).run().ok
