"""Robustness fuzzing: the front end must fail cleanly, never crash.

Any byte soup must produce either a parsed program or a located
``LexError``/``ParseError`` — no other exception type, no hang.  Valid
programs printed from random ASTs must lex to the same token stream
after a comment-stripping round trip.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang import (
    LexError,
    LoweringError,
    ParseError,
    parse_program,
    tokenize,
)
from repro.ir import lower_program
from repro.lang.parser import MAX_NESTING
from repro.staticcheck.irverify import verify_module

from .test_zero_false_positives import programs


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_arbitrary_text_fails_cleanly(text):
    try:
        parse_program(text)
    except (LexError, ParseError):
        pass


@settings(max_examples=150, deadline=None)
@given(
    st.text(
        alphabet="intvoidwhileforreturn(){}[];=+-*/%<>!&|0123456789abc _\n",
        max_size=300,
    )
)
def test_c_flavoured_soup_fails_cleanly(text):
    try:
        program = parse_program(text)
        # If it parsed, lowering must also either succeed or raise a
        # located error.
        try:
            module = lower_program(program)
            verify_module(module)
        except LoweringError:
            pass
    except (LexError, ParseError):
        pass


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="0123456789xXabcdefABCDEF", min_size=1, max_size=12))
def test_numeric_soup_lexes_or_fails_cleanly(text):
    try:
        tokenize(text)
    except LexError:
        pass


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=programs())
def test_generated_programs_always_compile(source):
    """Random well-formed programs always make it through the whole
    front end (generator reused from the zero-FP suite)."""
    module = lower_program(parse_program(source))
    verify_module(module)


def test_deeply_nested_blocks_do_not_blow_up():
    def nested(depth):
        return "void main() {" + "{" * depth + "emit(1);" + "}" * depth + "}"

    # ``main``'s body and ``emit``'s argument list take two levels.
    module = lower_program(parse_program(nested(MAX_NESTING - 2)))
    verify_module(module)
    # Deeper source is a located parse error, not a RecursionError.
    with pytest.raises(ParseError):
        parse_program(nested(150))


def test_long_operator_chain():
    """A left-deep chain lowers in a loop, so no chain length reaches
    the recursion limit: sums, and short-circuit conditions."""
    from repro.interp import Interpreter

    for terms in (300, 5_000):
        source = "void main() { emit(" + " + ".join(["1"] * terms) + "); }"
        module = lower_program(parse_program(source))
        assert Interpreter(module).run().outputs == [terms]
    for op, test in (("&&", "a != {}"), ("||", "a == {}")):
        chain = f" {op} ".join(test.format(i) for i in range(1_500))
        source = (
            "int a; void main() { a = read_int(); "
            f"if ({chain}) {{ emit(1); }} else {{ emit(2); }} }}"
        )
        module = lower_program(parse_program(source))
        verify_module(module)
        for value in (-1, 7, 1_499):
            # The && chain holds outside 0..1499, the || chain inside.
            expected = 1 if (op == "&&") == (value == -1) else 2
            run = Interpreter(module, inputs=[value]).run()
            assert run.outputs == [expected], (op, value)


def test_block_comments_do_not_nest():
    # C semantics: the comment ends at the *first* */ regardless of
    # inner /* markers.
    source = "void main() { /* outer /* inner */ emit(1); }"
    module = lower_program(parse_program(source))
    from repro.interp import Interpreter

    assert Interpreter(module).run().outputs == [1]


def test_very_long_comment():
    source = "void main() { /* " + "x" * 10_000 + " */ emit(1); }"
    module = lower_program(parse_program(source))
    from repro.interp import Interpreter

    assert Interpreter(module).run().outputs == [1]
