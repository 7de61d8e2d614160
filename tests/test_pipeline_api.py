"""Tests for the top-level pipeline API surface."""


from repro import (
    ProtectedProgram,
    RunStatus,
    compile_program,
    monitored_run,
    observed_run,
)
from repro.correlation.binary_image import load_program

SOURCE = """
int flag;
void main() {
  flag = read_int();
  while (read_int()) {
    if (flag == 1) { emit(1); } else { emit(2); }
  }
}
"""


def test_compile_program_returns_protected_program():
    program = compile_program(SOURCE, "api.c")
    assert isinstance(program, ProtectedProgram)
    assert program.source_name == "api.c"
    assert program.module.finalized
    assert program.build_stats


def test_monitored_and_unmonitored_agree():
    program = compile_program(SOURCE)
    inputs = [1, 1, 1, 1, 0]
    bare = observed_run(program, inputs=inputs)
    observed, ipds = monitored_run(program, inputs=inputs)
    assert bare.outputs == observed.outputs == [1, 1, 1]
    assert not ipds.detected


def test_step_limit_threads_through():
    program = compile_program("void main() { while (1) { } }")
    result, _ = monitored_run(program, step_limit=500)
    assert result.status is RunStatus.STEP_LIMIT


def test_to_image_roundtrip():
    program = compile_program(SOURCE)
    image = program.to_image()
    loaded, entries = load_program(image)
    assert set(loaded.by_function) == {"main"}
    assert entries["main"] == program.module.function_extent("main")[0]


def test_opt_level_changes_module_but_not_behaviour():
    plain = compile_program(SOURCE)
    opt = compile_program(SOURCE, opt_level=1)
    inputs = [1, 1, 1, 0]
    a = observed_run(plain, inputs=inputs)
    b = observed_run(opt, inputs=inputs)
    assert a.outputs == b.outputs
    # Optimization removed at least one instruction on this shape.
    assert b.steps <= a.steps


def test_version_exposed():
    import repro

    assert repro.__version__
