"""Tests for the IR interpreter: semantics, events, tampering."""

import pytest

from repro.lang import parse_program
from repro.ir import lower_program
from repro.interp import (
    GLOBAL_BASE,
    Interpreter,
    LazyTamper,
    MemoryMap,
    RunStatus,
    TamperSpec,
)
from repro.runtime import BranchEvent, CallEvent, ReturnEvent
from repro.runtime.observer import ExecutionObserver
from repro.runtime.replay import TraceRecorder


def lower(source):
    return lower_program(parse_program(source))


def run(source, inputs=(), **kwargs):
    return Interpreter(lower(source), inputs=inputs, **kwargs).run()


# ----------------------------------------------------------------------
# Core semantics
# ----------------------------------------------------------------------


def test_arithmetic_and_emit():
    result = run("void main() { emit(2 + 3 * 4); emit(10 - 7); }")
    assert result.outputs == [14, 3]
    assert result.ok


def test_division_truncates_toward_zero():
    result = run(
        "int a; int b; void main() { a = -7; b = 2; emit(a / b); emit(a % b); }"
    )
    assert result.outputs == [-3, -1]


def test_division_by_zero_faults():
    result = run("int z; void main() { emit(1 / z); }")
    assert result.status is RunStatus.DIV_BY_ZERO


def test_globals_initialized():
    result = run("int g = 41; void main() { emit(g + 1); }")
    assert result.outputs == [42]


def test_uninitialized_memory_reads_zero():
    result = run("int g; void main() { int l; emit(g); emit(l); }")
    assert result.outputs == [0, 0]


def test_if_else_branching():
    source = """
    void main() {
      int x = read_int();
      if (x < 10) { emit(1); } else { emit(2); }
    }
    """
    assert run(source, inputs=[5]).outputs == [1]
    assert run(source, inputs=[15]).outputs == [2]


def test_while_loop_sum():
    source = """
    void main() {
      int n = read_int();
      int s = 0;
      while (n > 0) { s = s + n; n = n - 1; }
      emit(s);
    }
    """
    assert run(source, inputs=[5]).outputs == [15]


def test_for_loop_with_break_continue():
    source = """
    void main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) {
        if (i == 3) { continue; }
        if (i == 6) { break; }
        s = s + i;
      }
      emit(s);
    }
    """
    # 0+1+2+4+5 = 12
    assert run(source).outputs == [12]


def test_short_circuit_and_skips_rhs():
    source = """
    int calls;
    int probe() { calls = calls + 1; return 1; }
    void main() {
      int x = 0;
      if (x == 1 && probe()) { emit(99); }
      emit(calls);
    }
    """
    assert run(source).outputs == [0]


def test_short_circuit_or_skips_rhs():
    source = """
    int calls;
    int probe() { calls = calls + 1; return 1; }
    void main() {
      int x = 1;
      if (x == 1 || probe()) { emit(7); }
      emit(calls);
    }
    """
    assert run(source).outputs == [7, 0]


def test_function_calls_and_returns():
    source = """
    int add(int a, int b) { return a + b; }
    int twice(int a) { return add(a, a); }
    void main() { emit(twice(21)); }
    """
    assert run(source).outputs == [42]


def test_recursion():
    source = """
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    void main() { emit(fib(10)); }
    """
    assert run(source).outputs == [55]


def test_pointers_write_through():
    source = """
    void bump(int *p) { *p = *p + 1; }
    void main() { int x = 5; bump(&x); emit(x); }
    """
    assert run(source).outputs == [6]


def test_arrays_and_indexing():
    source = """
    int buf[4];
    void main() {
      for (int i = 0; i < 4; i = i + 1) { buf[i] = i * i; }
      emit(buf[0] + buf[1] + buf[2] + buf[3]);
    }
    """
    assert run(source).outputs == [14]


def test_local_array_on_stack():
    source = """
    void main() {
      int a[3];
      a[0] = 7; a[1] = 8; a[2] = 9;
      emit(a[1]);
    }
    """
    assert run(source).outputs == [8]


def test_pointer_indexing():
    source = """
    int buf[4];
    void main() {
      int *p = &buf[1];
      p[1] = 44;
      emit(buf[2]);
    }
    """
    assert run(source).outputs == [44]


def test_input_exhaustion_reads_zero():
    result = run("void main() { emit(read_int()); emit(read_int()); }", inputs=[9])
    assert result.outputs == [9, 0]
    assert result.reads_consumed == 2


def test_return_value_of_main():
    source = "int main() { return 17; }"
    result = run(source)
    assert result.return_value == 17


def test_step_limit():
    result = run("void main() { while (1) { } }", step_limit=1000)
    assert result.status is RunStatus.STEP_LIMIT


def test_call_depth_limit():
    source = "void rec() { rec(); } void main() { rec(); }"
    result = run(source)
    assert result.status is RunStatus.CALL_DEPTH


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------


def collect_events(source, inputs=()):
    recorder = TraceRecorder()
    Interpreter(lower(source), inputs=inputs, observers=[recorder]).run()
    return recorder.events


def test_call_return_event_pairing():
    events = collect_events(
        "void inner() { } void main() { inner(); inner(); }"
    )
    calls = [e for e in events if isinstance(e, CallEvent)]
    rets = [e for e in events if isinstance(e, ReturnEvent)]
    assert [c.function_name for c in calls] == ["main", "inner", "inner"]
    assert len(rets) == 3
    assert rets[-1].function_name == "main"


def test_branch_events_match_trace():
    source = """
    void main() {
      int x = read_int();
      if (x < 5) { emit(1); } else { emit(2); }
    }
    """
    events = collect_events(source, inputs=[3])
    branches = [e for e in events if isinstance(e, BranchEvent)]
    assert len(branches) == 1
    assert branches[0].taken is True
    assert branches[0].function_name == "main"


def test_branch_trace_recorded():
    result = run(
        "void main() { for (int i = 0; i < 3; i = i + 1) { } }"
    )
    # 4 header evaluations: 3 taken + 1 exit.
    assert len(result.branch_trace) == 4
    assert [t for _, t in result.branch_trace] == [True, True, True, False]


# ----------------------------------------------------------------------
# Memory map and tampering
# ----------------------------------------------------------------------


def test_memory_map_layout_disjoint():
    module = lower("int a; int b[4]; void main() { int l; emit(l); }")
    mm = MemoryMap(module)
    addresses = [addr for addr, _, _ in mm.global_slots()]
    assert len(set(addresses)) == len(addresses) == 5
    assert min(addresses) == GLOBAL_BASE


def test_tamper_overwrites_global():
    source = """
    int secret = 1;
    void main() {
      int x = read_int();
      emit(secret);
    }
    """
    module = lower(source)
    mm = MemoryMap(module)
    (secret_var,) = [v for v in module.globals if v.name == "secret"]
    address = mm.global_addresses[secret_var]
    result = Interpreter(
        module,
        inputs=[1],
        tamper=TamperSpec("read", 1, address, 666),
    ).run()
    assert result.tamper_fired
    assert result.outputs == [666]


def test_tamper_on_step_trigger():
    source = "int g = 5; void main() { emit(g); emit(g); }"
    module = lower(source)
    mm = MemoryMap(module)
    (g,) = module.globals
    address = mm.global_addresses[g]
    # Trigger early enough to hit before the first load completes its
    # surrounding sequence; step 1 fires after the first instruction.
    result = Interpreter(
        module, tamper=TamperSpec("step", 1, address, -1)
    ).run()
    assert result.tamper_fired
    assert result.outputs[-1] == -1


def test_tamper_changes_control_flow():
    source = """
    int user = 0;
    void main() {
      int x = read_int();
      if (user == 0) { emit(1); } else { emit(2); }
    }
    """
    module = lower(source)
    mm = MemoryMap(module)
    (user,) = [v for v in module.globals if v.name == "user"]
    address = mm.global_addresses[user]
    clean = Interpreter(module, inputs=[1]).run()
    attacked = Interpreter(
        module, inputs=[1], tamper=TamperSpec("read", 1, address, 1)
    ).run()
    assert clean.outputs == [1]
    assert attacked.outputs == [2]
    assert clean.branch_trace != attacked.branch_trace


def test_lazy_tamper_hook_sees_live_stack_slots():
    source = """
    void helper(int a) { int local = read_int(); emit(local + a); }
    void main() { int x = 3; helper(x); }
    """
    module = lower(source)
    seen = []

    def choose(live, memory):
        seen.append(live)
        (param,) = [address for address, fn, var in live if var == "a"]
        return param, 10

    result = Interpreter(
        module, inputs=[4], tamper=LazyTamper("read", 1, choose)
    ).run()
    assert len(seen) == 1
    names = {(fn, var) for _, fn, var in seen[0]}
    assert ("main", "x") in names
    assert ("helper", "local") in names
    assert ("helper", "a") in names
    # The hook's choice is the word written: a = 10, so 4 + 10.
    assert result.tamper_fired
    assert result.outputs == [14]


class _InstructionCounter(ExecutionObserver):
    def __init__(self):
        self.count = 0

    def on_instruction(self, instruction, touched):
        self.count += 1


def test_lazy_step_trigger_fires_at_the_tamper_step():
    source = """
    int g = 0;
    int bump(int v) { return v + 1; }
    void main() {
      int i = 0;
      while (i < 4) { i = bump(i); }
      emit(g);
    }
    """
    module = lower(source)
    (g,) = [v for v in module.globals if v.name == "g"]
    address = MemoryMap(module).global_addresses[g]
    for step in (1, 5, 12, 20):
        fixed = Interpreter(
            module, tamper=TamperSpec("step", step, address, 7)
        ).run()
        counter = _InstructionCounter()
        fired_at = []

        def choose(live, memory):
            fired_at.append(counter.count)
            return address, 7

        lazy = Interpreter(
            module,
            tamper=LazyTamper("step", step, choose),
            observers=[counter],
        ).run()
        # The hook runs once, right after the trigger step commits —
        # the moment the fixed tamper writes its word.
        assert fired_at == [step]
        assert lazy.tamper_site == fixed.tamper_site
        assert lazy.outputs == fixed.outputs == [7]
        assert lazy.steps == fixed.steps


def test_invalid_tamper_trigger_rejected():
    with pytest.raises(ValueError):
        TamperSpec("never", 1, 0, 0)


@pytest.mark.parametrize("value", [0, -4])
@pytest.mark.parametrize("kind", ["read", "step"])
def test_tamper_trigger_below_one_rejected(kind, value):
    # Triggers are 1-based: 0 and below name no read and no step.
    with pytest.raises(ValueError, match="trigger must be >= 1"):
        TamperSpec(kind, value, GLOBAL_BASE, 0)
    with pytest.raises(ValueError, match="trigger must be >= 1"):
        LazyTamper(kind, value, lambda live, memory: (GLOBAL_BASE, 0))


def test_unfinalized_module_rejected():
    from repro.ir import IRModule

    with pytest.raises(Exception):
        Interpreter(IRModule())
