"""Tests for the optimization passes: correctness and effects."""

from hypothesis import HealthCheck, given, settings

from repro.lang import parse_program
from repro.ir import BinOp, CondBranch, Load, lower_program
from repro.opt import optimize_module
from repro.pipeline import compile_program, monitored_run
from repro.interp import Interpreter
from repro.staticcheck.irverify import verify_module


def optimized(source):
    module = lower_program(parse_program(source))
    stats = optimize_module(module)
    verify_module(module)
    return module, stats


def instructions_of(module, name="main"):
    return list(module.function(name).instructions())


# ----------------------------------------------------------------------
# Constant propagation
# ----------------------------------------------------------------------


def test_constants_fold_through_arithmetic():
    module, stats = optimized(
        "void main() { int x = 2; int y = x + 3; emit(y * 4); }"
    )
    # Everything folds; the emit argument becomes the constant 20.
    from repro.ir import Call

    (call,) = [i for i in instructions_of(module) if isinstance(i, Call) and i.callee == "emit"]
    assert call.args == [20]


def test_constant_branch_folds_to_jump():
    module, stats = optimized(
        "void main() { int x = 1; if (x < 5) { emit(1); } else { emit(2); } }"
    )
    fn = module.function("main")
    assert fn.cond_branches() == []
    from repro.ir import Call

    calls = [i for i in fn.instructions() if isinstance(i, Call) and i.callee == "emit"]
    assert [c.args for c in calls] == [[1]]


def test_division_by_zero_not_folded_away():
    module, _ = optimized("void main() { int z = 0; emit(1 / z); }")
    insns = instructions_of(module)
    assert any(isinstance(i, BinOp) and i.op == "/" for i in insns)
    result = Interpreter(module).run()
    assert result.status.value == "div_by_zero"


def test_input_dependent_values_not_folded():
    module, _ = optimized(
        "void main() { int x = read_int(); if (x < 5) { emit(1); } }"
    )
    assert len(module.function("main").cond_branches()) == 1


# ----------------------------------------------------------------------
# Store-to-load forwarding
# ----------------------------------------------------------------------


def test_redundant_load_removed():
    module, _ = optimized(
        "int g; void main() { int a = g + g; emit(a); }"
    )
    loads = [i for i in instructions_of(module) if isinstance(i, Load)]
    # Two loads of g collapse to one.
    assert len([l for l in loads if l.var.name == "g"]) == 1


def test_store_forwards_to_following_load():
    # x = read_int(); if (x < 5): the load of x forwards from the store.
    module, _ = optimized(
        "void main() { int x = read_int(); if (x < 5) { emit(1); } }"
    )
    loads = [i for i in instructions_of(module) if isinstance(i, Load)]
    assert loads == []  # the load of x is gone
    # The branch now tests the call result register directly.
    (branch,) = module.function("main").cond_branches()
    assert isinstance(branch, CondBranch)


def test_constant_store_forwards_as_const():
    module, _ = optimized("int g; void main() { g = 7; emit(g); }")
    from repro.ir import Call

    (call,) = [i for i in instructions_of(module) if isinstance(i, Call) and i.callee == "emit"]
    assert call.args == [7]


def test_forwarding_killed_by_user_call():
    module, _ = optimized(
        """
        int g;
        void clobber() { g = 9; }
        void main() { g = 1; clobber(); emit(g); }
        """
    )
    loads = [i for i in instructions_of(module) if isinstance(i, Load)]
    assert any(l.var.name == "g" for l in loads)
    result = Interpreter(module).run()
    assert result.outputs == [9]


def test_forwarding_killed_by_indirect_store():
    module, _ = optimized(
        """
        void main() {
          int x = 1;
          int *p = &x;
          *p = 2;
          emit(x);
        }
        """
    )
    result = Interpreter(module).run()
    assert result.outputs == [2]


def test_forwarding_survives_builtin_call():
    module, _ = optimized(
        "int g; void main() { g = 3; emit(0); emit(g); }"
    )
    result = Interpreter(module).run()
    assert result.outputs == [0, 3]
    loads = [i for i in instructions_of(module) if isinstance(i, Load)]
    assert not any(l.var.name == "g" for l in loads)


# ----------------------------------------------------------------------
# DCE
# ----------------------------------------------------------------------


def test_dead_arithmetic_removed():
    module, _ = optimized(
        "int g; void main() { int dead = g * 3 + 1; emit(5); }"
    )
    insns = instructions_of(module)
    assert not any(isinstance(i, BinOp) for i in insns)


def test_possibly_faulting_division_kept():
    module, _ = optimized(
        "int z; void main() { int d = read_int(); int dead = 7 / d; emit(1); }"
    )
    insns = instructions_of(module)
    assert any(isinstance(i, BinOp) and i.op == "/" for i in insns)


def test_emit_never_removed():
    module, _ = optimized("void main() { emit(1); emit(2); }")
    result = Interpreter(module).run()
    assert result.outputs == [1, 2]


# ----------------------------------------------------------------------
# Differential correctness on random programs
# ----------------------------------------------------------------------

from .test_zero_false_positives import INPUT_STREAMS, programs  # noqa: E402


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), inputs=INPUT_STREAMS)
def test_optimization_preserves_semantics(source, inputs):
    plain = lower_program(parse_program(source))
    opt = lower_program(parse_program(source))
    optimize_module(opt)
    verify_module(opt)
    a = Interpreter(plain, inputs=inputs, step_limit=20_000).run()
    b = Interpreter(opt, inputs=inputs, step_limit=20_000).run()
    if a.status.value == "step_limit" or b.status.value == "step_limit":
        return  # optimization legitimately changes step counts
    assert a.outputs == b.outputs, source
    assert a.status is b.status
    assert a.return_value == b.return_value


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), inputs=INPUT_STREAMS)
def test_optimized_programs_still_never_false_positive(source, inputs):
    program = compile_program(source, "random.c", opt_level=1)
    _, ipds = monitored_run(program, inputs=inputs, step_limit=20_000)
    assert not ipds.detected, (source, [str(a) for a in ipds.alarms])


# ----------------------------------------------------------------------
# The paper's observation: optimization reduces correlations
# ----------------------------------------------------------------------


def test_optimization_reduces_checked_branches_on_workloads():
    from repro.workloads import all_workloads

    plain_total = 0
    opt_total = 0
    for workload in all_workloads():
        plain = compile_program(workload.source, workload.name)
        opt = compile_program(workload.source, workload.name, opt_level=1)
        plain_total += plain.tables.total_checked
        opt_total += opt.tables.total_checked
    # "compiler optimizations can remove some correlations" (§6).
    assert opt_total <= plain_total
    assert plain_total > 0
