"""Soundness of the detectability prover over generated programs.

The prover's two definite verdicts are refutable claims about every
continuation of a tamper point: ``DET801`` promises an alarm and
``DET803`` promises silence.  ``tools/validate_predictions.py`` checks
them on the seeded campaigns of the ten workloads; this property checks
them on generated programs.  Each example compiles one program at opt
0 or 3, tampers globals at eight sampled step triggers with sampled
values through the campaign's own recipe (``execute_attack``), joins
the outcomes with the prover's verdicts (``join_outcomes``) and
asserts:

* a ``DET801`` join was detected, unless the attacked run was cut
  short by the step or call-depth limit (the progress assumption,
  DESIGN.md §4h);
* a ``DET803`` join was not detected.

The programs come from two strategies, one test each.  Sampled attacks
on a ``programs()`` example (loops, calls, pointers, arrays) almost
never land on a proven-detected point, so a second, loop-free strategy
builds correlated if/else diamonds over a few globals in the shape of
``TWIN_SOURCE``: a tamper between two checks of one global is often
proven detected there.  Each ``DET801`` join is counted with
``hypothesis.event`` (see ``--hypothesis-show-statistics``), and a
fixed corpus pins that the property reaches them.
"""

from collections import Counter

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import TamperSpec, compile_program, observed_run
from repro.analysis.alias import analyze_aliases
from repro.analysis.purity import analyze_purity
from repro.attacks.campaign import CampaignConfig, execute_attack
from repro.interp.state import MemoryMap
from repro.staticcheck.detectability import (
    PROVEN_DETECTED,
    PROVEN_UNDETECTED,
    DetectabilityAnalysis,
)
from repro.staticcheck.detectvalidate import TRUNCATED, join_outcomes

from .test_zero_false_positives import RELOPS, programs

#: Step budget of both runs of each attack: generated programs finish
#: in a few thousand steps, so hitting it means a tamper made a loop
#: run away (a truncated run, exempt from the DET801 check).
STEP_LIMIT = 20_000

#: Attacks per example.  Every step trigger × every global × five
#: values reaches plenty of DET801 joins but takes minutes per hundred
#: ``programs()`` examples; eight sampled attacks keep this file at a
#: few seconds.
ATTACKS_PER_EXAMPLE = 8

#: Payloads: small values on both sides of the diamonds' bounds, plus
#: the campaign's large ones.
VALUES = st.one_of(st.integers(-6, 6), st.sampled_from([-999, 0x41414141]))

DIAMOND_GLOBALS = ("g0", "g1", "g2")


# ----------------------------------------------------------------------
# Correlated diamonds: the TWIN_SOURCE shape, loop-free
# ----------------------------------------------------------------------


@st.composite
def _arm(draw, checks, depth):
    """One side of a diamond: an emit, a write that kills what the
    BSV knows about a global, or (one level deep) another diamond."""
    kind = draw(st.integers(0, 9 if depth > 0 else 7))
    target = draw(st.sampled_from(DIAMOND_GLOBALS))
    if kind == 0:
        return [f"{target} = read_int();"]
    if kind == 1:
        return [f"{target} = {draw(st.integers(-4, 4))};"]
    if kind >= 8:
        return draw(_diamond(checks, depth - 1))
    return [f"emit({draw(st.integers(0, 9))});"]


@st.composite
def _diamond(draw, checks, depth):
    var, op, bound = draw(st.sampled_from(checks))
    return [
        f"if ({var} {op} {bound}) {{",
        *draw(_arm(checks, depth)),
        "} else {",
        *draw(_arm(checks, depth)),
        "}",
    ]


@st.composite
def diamond_programs(draw):
    """Globals read once, then if/else diamonds whose conditions come
    from a small pool, so the same check recurs and correlates."""
    checks = draw(
        st.lists(
            st.tuples(
                st.sampled_from(DIAMOND_GLOBALS),
                st.sampled_from(RELOPS),
                st.integers(-3, 3),
            ),
            min_size=1,
            max_size=2,
        )
    )
    body = [f"{name} = read_int();" for name in DIAMOND_GLOBALS]
    for _ in range(draw(st.integers(3, 6))):
        body += draw(_diamond(checks, depth=1))
    return "\n".join(
        [f"int {name};" for name in DIAMOND_GLOBALS]
        + ["void main() {"]
        + ["  " + line for line in body]
        + ["}"]
    )


# ----------------------------------------------------------------------
# One example: sampled attacks, joined with the prover's verdicts
# ----------------------------------------------------------------------


def joined_attacks(program, inputs, attacks):
    """Run each ``(trigger draw, global index, value)`` attack on the
    program and join its outcome with the prover's verdict.  The draw
    picks a step trigger inside the clean run, so every tamper fires."""
    steps = observed_run(program, inputs=inputs, step_limit=STEP_LIMIT).steps
    addresses = sorted(MemoryMap(program.module).global_addresses.values())
    config = CampaignConfig(
        opt_level=program.opt_level, step_limit=STEP_LIMIT
    )
    outcomes = []
    for index, (draw, which, value) in enumerate(attacks):
        tamper = TamperSpec(
            "step",
            1 + draw % max(1, steps),
            addresses[which % len(addresses)],
            value,
        )
        outcomes.append(
            execute_attack(
                program, inputs, tamper, index=index, config=config
            ).outcome
        )
    analyze_aliases(program.module)
    analysis = DetectabilityAnalysis(program, analyze_purity(program.module))
    return join_outcomes(program, outcomes, "random.c", analysis)


def assert_sound(joins, context):
    for join in joins:
        if join.verdict == PROVEN_DETECTED:
            assert join.detected or join.attack_status in TRUNCATED, (
                context,
                join,
            )
        elif join.verdict == PROVEN_UNDETECTED:
            assert not join.detected, (context, join)


ATTACKS = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 2), VALUES),
    min_size=ATTACKS_PER_EXAMPLE,
    max_size=ATTACKS_PER_EXAMPLE,
)


def check_sampled_attacks(source, opt_level, inputs, attacks):
    program = compile_program(source, "random.c", opt_level)
    joins = joined_attacks(program, inputs, attacks)
    for join in joins:
        if join.verdict == PROVEN_DETECTED:
            event("DET801 join")
    assert_sound(joins, (source, opt_level, inputs, attacks))


EXAMPLE = dict(
    opt_level=st.sampled_from([0, 3]),
    inputs=st.lists(st.integers(-6, 6), min_size=0, max_size=12),
    attacks=ATTACKS,
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=diamond_programs(), **EXAMPLE)
def test_definite_verdicts_hold_on_correlated_diamonds(
    source, opt_level, inputs, attacks
):
    check_sampled_attacks(source, opt_level, inputs, attacks)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs(), **EXAMPLE)
def test_definite_verdicts_hold_on_random_programs(
    source, opt_level, inputs, attacks
):
    check_sampled_attacks(source, opt_level, inputs, attacks)


# ----------------------------------------------------------------------
# A fixed corpus: the property is not vacuous
# ----------------------------------------------------------------------

CORPUS = (
    """
int g0;
int g1;
void main() {
  g0 = read_int();
  g1 = read_int();
  if (g0 > 1) { emit(1); } else { emit(2); }
  if (g1 == 0) { g0 = 3; } else { emit(3); }
  if (g0 > 1) { emit(4); } else { emit(5); }
  if (g1 == 0) { emit(6); } else { emit(7); }
}
""",
    """
int g0;
int g1;
int g2;
void main() {
  g0 = read_int();
  g1 = read_int();
  g2 = read_int();
  if (g0 < 0) { if (g1 != 2) { emit(1); } else { g2 = 0; } } else { emit(2); }
  if (g2 >= 1) { emit(3); } else { emit(4); }
  if (g1 != 2) { emit(5); } else { emit(6); }
  if (g0 < 0) { emit(7); } else { emit(8); }
}
""",
)
CORPUS_INPUTS = ([5, 0, 1], [-1, 2, 0])


def test_fixed_corpus_reaches_proven_detected_joins():
    """Every step trigger of the corpus programs, every global, values
    on both sides of each bound: every definite verdict holds, and the
    joins include DET801 points, all of them detected."""
    counts = Counter()
    for source in CORPUS:
        for opt_level in (0, 3):
            for inputs in CORPUS_INPUTS:
                program = compile_program(source, "random.c", opt_level)
                steps = observed_run(program, inputs=inputs).steps
                attacks = [
                    (draw, which, value)
                    for draw in range(steps)
                    for which in range(len(program.module.globals))
                    for value in (-1, 0, 2, 5)
                ]
                joins = joined_attacks(program, inputs, attacks)
                assert_sound(joins, (source, opt_level, inputs))
                counts.update(join.verdict for join in joins)
                assert all(
                    join.detected
                    for join in joins
                    if join.verdict == PROVEN_DETECTED
                )
    assert counts[PROVEN_DETECTED] == 66, counts
