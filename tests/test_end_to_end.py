"""End-to-end: compile → protect → run with IPDS → detect tampering.

These tests reproduce the paper's headline behaviours: the Figure 1
privilege-escalation attack is detected; clean runs never alarm (zero
false positives); detection implies a control-flow change.
"""

import pytest

from repro import TamperSpec, compile_program, monitored_run, observed_run
from repro.interp import MemoryMap


def global_address(program, name):
    mm = MemoryMap(program.module)
    (var,) = [v for v in program.module.globals if v.name == name]
    return mm.global_addresses[var]


# ----------------------------------------------------------------------
# Figure 1: the motivating attack (privilege escalation, no code
# injection)
# ----------------------------------------------------------------------

FIGURE_1 = """
int user;       // 0 = admin, nonzero = unprivileged (strncmp-style)

void verify_user() {
  user = read_int();
}

void main() {
  verify_user();
  if (user == 0) {
    emit(100);  // admin path, first gate
  } else {
    emit(200);
  }
  int someinput = read_int();   // the vulnerable input
  if (user == 0) {
    emit(111);  // superuser privilege, second gate
  } else {
    emit(222);
  }
}
"""


@pytest.fixture(scope="module")
def fig1():
    return compile_program(FIGURE_1, "figure1.c")


def test_fig1_clean_unprivileged_run_no_alarm(fig1):
    result, ipds = monitored_run(fig1, inputs=[5, 0])
    assert result.outputs == [200, 222]
    assert not ipds.detected


def test_fig1_clean_admin_run_no_alarm(fig1):
    result, ipds = monitored_run(fig1, inputs=[0, 0])
    assert result.outputs == [100, 111]
    assert not ipds.detected


def test_fig1_privilege_escalation_detected(fig1):
    # Attacker is unprivileged (user=5); the second input overflows
    # into `user`, flipping it to 0 before the second gate.
    address = global_address(fig1, "user")
    tamper = TamperSpec("read", 2, address, 0)
    result, ipds = monitored_run(fig1, inputs=[5, 1337], tamper=tamper)
    # The attack succeeds at the program level (gate 2 grants admin) …
    assert result.outputs == [200, 111]
    # … but the IPDS flags the infeasible path.
    assert ipds.detected
    (alarm,) = ipds.alarms
    assert alarm.function_name == "main"


def test_fig1_reverse_escalation_also_detected(fig1):
    # Admin demoted mid-run is just as infeasible.
    address = global_address(fig1, "user")
    tamper = TamperSpec("read", 2, address, 7)
    result, ipds = monitored_run(fig1, inputs=[0, 1], tamper=tamper)
    assert result.outputs == [100, 222]
    assert ipds.detected


def test_fig1_tamper_matching_original_value_undetected(fig1):
    # Tampering that writes back the same value changes nothing: no
    # control-flow change, no alarm (and that is correct behaviour —
    # §6: "not designed to handle" no-change cases).
    address = global_address(fig1, "user")
    tamper = TamperSpec("read", 2, address, 5)
    result, ipds = monitored_run(fig1, inputs=[5, 1], tamper=tamper)
    assert result.outputs == [200, 222]
    assert not ipds.detected


# ----------------------------------------------------------------------
# Figure 3.a running example, dynamically
# ----------------------------------------------------------------------

FIGURE_3A = """
int x;
int y;
void main() {
  x = read_int();
  y = read_int();
  while (read_int()) {
    if (y < 5) { emit(1); }
    if (x > 10) { x = read_int(); }
    else { y = read_int(); }
    if (y < 10) { emit(2); }
  }
}
"""


def test_fig3a_clean_loop_no_alarm():
    program = compile_program(FIGURE_3A)
    inputs = [3, 2, 1, 7, 1, 4, 1, 12, 0]
    result, ipds = monitored_run(program, inputs=inputs)
    assert result.ok
    assert not ipds.detected


def test_fig3a_tampering_y_between_checks_detected():
    # y=2 initially: BR1 taken (y<5) predicts BR5 taken (y<10).  Sweep
    # tamper points over the first iterations; every control-flow
    # divergence caused by corrupting y must be caught by the y-branch
    # correlations, at least once.
    program = compile_program(FIGURE_3A)
    address = global_address(program, "y")
    inputs = [20, 2, 1, 99, 1, 98, 0]
    clean = observed_run(program, inputs=inputs)
    changed_count = detected_count = 0
    for step in range(10, min(clean.steps, 160), 5):
        tamper = TamperSpec("step", step, address, 50)
        result, ipds = monitored_run(program, inputs=inputs, tamper=tamper)
        if result.branch_trace != clean.branch_trace:
            changed_count += 1
            detected_count += int(ipds.detected)
    assert changed_count > 0
    assert detected_count > 0


# ----------------------------------------------------------------------
# Zero false positives on assorted clean programs
# ----------------------------------------------------------------------

CLEAN_PROGRAMS = [
    # Nested loops with correlated bounds.
    """
    int n;
    void main() {
      n = read_int();
      for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < i; j = j + 1) { emit(i * j); }
      }
    }
    """,
    # Repeated checks of an unchanging flag.
    """
    int flag;
    void main() {
      flag = read_int();
      for (int i = 0; i < 8; i = i + 1) {
        if (flag < 3) { emit(1); } else { emit(2); }
      }
    }
    """,
    # Pointer writes that the analysis must treat as kills.
    """
    int a; int b;
    void main() {
      a = read_int();
      int *p = &a;
      if (a < 10) { emit(1); }
      *p = read_int();
      if (a < 10) { emit(2); }
    }
    """,
    # Calls that clobber globals between checks.
    """
    int g;
    void scramble() { g = read_int(); }
    void main() {
      g = read_int();
      if (g == 0) { emit(1); }
      scramble();
      if (g == 0) { emit(2); }
    }
    """,
    # Recursion with checked parameters.
    """
    int depth;
    int walk(int n) {
      if (n < 1) { return 0; }
      depth = depth + 1;
      return walk(n - 1) + 1;
    }
    void main() { emit(walk(read_int())); }
    """,
]


@pytest.mark.parametrize("source", CLEAN_PROGRAMS)
@pytest.mark.parametrize(
    "inputs",
    [[0], [1], [5], [9], [10], [100], [-3], [2, 7], [11, 0], [3, 3, 3]],
)
def test_zero_false_positives(source, inputs):
    program = compile_program(source)
    result, ipds = monitored_run(program, inputs=inputs)
    assert not ipds.detected, [str(a) for a in ipds.alarms]


def test_detection_implies_control_flow_change():
    # Sweep many tamper points/values on Figure 1; every alarm must
    # coincide with a trace divergence (soundness).
    program = compile_program(FIGURE_1)
    address = global_address(program, "user")
    inputs = [5, 1]
    clean = observed_run(program, inputs=inputs)
    for value in (-2, 0, 1, 5, 99):
        for trigger in (1, 2):
            tamper = TamperSpec("read", trigger, address, value)
            result, ipds = monitored_run(program, inputs=inputs, tamper=tamper)
            if ipds.detected:
                assert result.branch_trace != clean.branch_trace
