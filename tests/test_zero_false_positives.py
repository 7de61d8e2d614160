"""Property-based soundness tests.

The paper's central guarantee is *zero false positives*: on any
untampered execution, the IPDS never raises an alarm (§6).  The dual
soundness property is that an alarm implies the tampering actually
changed control flow.  Both are checked here over randomly generated
mini-C programs and random single-word tamperings.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import TamperSpec, compile_program, monitored_run, observed_run
from repro.interp import GLOBAL_BASE, STACK_BASE

# ----------------------------------------------------------------------
# A random-program generator
# ----------------------------------------------------------------------

GLOBALS = ["g0", "g1", "g2"]
LOCALS = ["a", "b", "c"]
ALL_VARS = GLOBALS + LOCALS
#: Scalars whose address may be taken (pointer targets).
POINTABLE = ["g0", "g1", "a", "b"]
RELOPS = ["<", "<=", ">", ">=", "==", "!="]

#: Helper functions available to generated programs: a pure one, a
#: global-clobbering one, and a pointer-writing one — exercising the
#: §5.3 purity classes.
HELPERS = """
int pure_inc(int v) { return v + 1; }
void clobber(int v) { g2 = v; }
void poke(int *p, int v) { *p = v; }
"""


def _safe_index(expr):
    """An always-in-bounds index for the 4-element array (UB-free)."""
    return f"(({expr}) % 4 + 4) % 4"


@st.composite
def expressions(draw):
    kind = draw(st.integers(0, 7))
    var = draw(st.sampled_from(ALL_VARS))
    const = draw(st.integers(-20, 20))
    if kind == 0:
        return str(const)
    if kind == 1:
        return var
    if kind == 2:
        return f"{var} + {const}"
    if kind == 3:
        return f"{var} - {const}"
    if kind == 4:
        return f"arr[{_safe_index(var)}]"
    if kind == 5:
        return f"pure_inc({var})"
    if kind == 6:
        return "*p"
    return "read_int()"


@st.composite
def conditions(draw):
    var = draw(st.sampled_from(ALL_VARS))
    op = draw(st.sampled_from(RELOPS))
    if draw(st.booleans()):
        rhs = str(draw(st.integers(-15, 15)))
    else:
        rhs = draw(st.sampled_from(ALL_VARS))
    return f"{var} {op} {rhs}"


@st.composite
def statements(draw, depth):
    kind = draw(st.integers(0, 9 if depth > 0 else 7))
    if kind == 0:
        var = draw(st.sampled_from(ALL_VARS))
        return [f"{var} = {draw(expressions())};"]
    if kind == 1:
        return [f"emit({draw(expressions())});"]
    if kind == 6:
        target = draw(st.sampled_from(POINTABLE))
        return [f"p = &{target};"]
    if kind == 7:
        choice = draw(st.integers(0, 3))
        value = draw(expressions())
        if choice == 0:
            return [f"*p = {value};"]
        if choice == 1:
            index_var = draw(st.sampled_from(ALL_VARS))
            return [f"arr[{_safe_index(index_var)}] = {value};"]
        if choice == 2:
            return [f"clobber({value});"]
        return [f"poke(p, {value});"]
    if kind == 2 or kind == 3:
        cond = draw(conditions())
        body = draw(blocks(depth - 1)) if depth > 0 else ["emit(0);"]
        lines = [f"if ({cond}) {{", *body, "}"]
        if draw(st.booleans()):
            else_body = draw(blocks(depth - 1)) if depth > 0 else ["emit(1);"]
            lines += ["else {", *else_body, "}"]
        return lines
    if kind == 4:
        # A counted loop (always terminates) with a free condition check
        # inside.
        bound = draw(st.integers(1, 6))
        counter = f"i{draw(st.integers(0, 99))}"
        body = draw(blocks(depth - 1))
        return [
            f"for (int {counter} = 0; {counter} < {bound}; "
            f"{counter} = {counter} + 1) {{",
            *body,
            "}",
        ]
    # Nested braces.
    return ["{", *draw(blocks(depth - 1)), "}"]


@st.composite
def blocks(draw, depth):
    count = draw(st.integers(1, 3))
    lines = []
    for _ in range(count):
        lines.extend(draw(statements(depth)))
    return lines


@st.composite
def programs(draw):
    body = draw(blocks(depth=2))
    decls = [f"int {name};" for name in GLOBALS]
    local_decls = [f"  int {name} = read_int();" for name in LOCALS]
    local_decls += ["  int arr[4];", "  int *p = &g0;"]
    return "\n".join(
        decls
        + [HELPERS]
        + ["void main() {"]
        + local_decls
        + ["  " + line for line in body]
        + ["}"]
    )


INPUT_STREAMS = st.lists(st.integers(-50, 50), min_size=0, max_size=30)


# ----------------------------------------------------------------------
# Property 1: no alarms on clean runs, ever.
# ----------------------------------------------------------------------


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), inputs=INPUT_STREAMS)
def test_clean_runs_never_alarm(source, inputs):
    program = compile_program(source, "random.c")
    result, ipds = monitored_run(program, inputs=inputs, step_limit=20_000)
    assert not ipds.detected, (
        source,
        inputs,
        [str(a) for a in ipds.alarms],
    )


# ----------------------------------------------------------------------
# Property 2: an alarm implies the tampering changed control flow.
# ----------------------------------------------------------------------


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=programs(),
    inputs=st.lists(st.integers(-50, 50), min_size=2, max_size=20),
    seed=st.integers(0, 10_000),
)
def test_alarm_implies_control_flow_change(source, inputs, seed):
    program = compile_program(source, "random.c")
    clean = observed_run(program, inputs=inputs, step_limit=20_000)
    rng = random.Random(seed)
    address = rng.choice(
        [GLOBAL_BASE + rng.randrange(0, 8), STACK_BASE + rng.randrange(0, 12)]
    )
    tamper = TamperSpec(
        "step",
        rng.randrange(1, max(2, clean.steps or 2)),
        address,
        rng.choice([0, 1, -1, 7, -999, 0x41414141]),
    )
    attacked, ipds = monitored_run(
        program, inputs=inputs, tamper=tamper, step_limit=20_000
    )
    if ipds.detected:
        assert (
            attacked.branch_trace != clean.branch_trace
            or attacked.status is not clean.status
        ), (source, inputs, tamper)


# ----------------------------------------------------------------------
# Property 3: the monitored run is a pure observer — identical program
# behaviour with and without the IPDS attached.
# ----------------------------------------------------------------------


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), inputs=INPUT_STREAMS)
def test_monitoring_does_not_perturb_execution(source, inputs):
    program = compile_program(source, "random.c")
    bare = observed_run(program, inputs=inputs, step_limit=20_000)
    observed, _ = monitored_run(program, inputs=inputs, step_limit=20_000)
    assert bare.outputs == observed.outputs
    assert bare.branch_trace == observed.branch_trace
    assert bare.status is observed.status
    assert bare.steps == observed.steps


# ----------------------------------------------------------------------
# Property 4: every function has tables, so the IPDS never meets a call
# it cannot check.
# ----------------------------------------------------------------------


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), opt_level=st.integers(0, 3))
def test_every_function_has_tables(source, opt_level):
    program = compile_program(source, "random.c", opt_level)
    assert set(program.tables.by_function) == {
        fn.name for fn in program.module.functions
    }
