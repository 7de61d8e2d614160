"""The bookkeeping under both range fixpoints: environment joins.

``env_join``/``env_widen`` (auditor) and ``_env_join``/``_env_widen``
(builder) walk one environment and probe the other, and reuse a value
object both sides share.  They must equal the pointwise definition: the
key-set intersection, with ``a[var].join(b[var])`` (resp. ``widen``)
and top dropped.  The value join is not commutative, so the operand
order is part of that definition.  Both fixpoints test a join for a
change with ``is``, so a join hands back its left operand itself
exactly when the definition equals it.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.feasible import FeasRange, _canonical, _env_join, _env_widen
from repro.analysis.ranges import NEG_INF, POS_INF, Interval
from repro.ir.instructions import Variable, VarKind
from repro.staticcheck.domain import ValueSet, _normalize, env_join, env_widen

VARS = [Variable(f"v{i}", VarKind.GLOBAL, 1, i) for i in range(4)]
_BOUNDS = st.one_of(st.integers(-4, 12), st.sampled_from([NEG_INF, POS_INF]))


def _values(canonical):
    """Value sets built the way the lattice builds them: any bounds
    (empty intervals included) and a hole put through the canonical
    constructor."""
    return st.builds(
        lambda lo, hi, hole: canonical(Interval(lo, hi), hole),
        _BOUNDS,
        _BOUNDS,
        st.one_of(st.none(), st.integers(-4, 12)),
    )


@st.composite
def _env_pairs(draw, canonical):
    """Two environments drawing values from one pool, so both sides
    often hold the very same value object for a variable."""
    pool = draw(st.lists(_values(canonical), min_size=1, max_size=5))
    index = st.integers(0, len(pool) - 1)

    def env():
        picks = draw(st.dictionaries(st.sampled_from(VARS), index))
        return {var: pool[i] for var, i in picks.items()}

    return env(), env()


def _pointwise(a, b, operation):
    """The definition both joins had before: key-set intersection,
    ``a``'s value on the left, top dropped."""
    result = {}
    for var in a.keys() & b.keys():
        value = operation(a[var], b[var])
        if not value.is_top:
            result[var] = value
    return result


def _holes(canonical):
    """``[0, 5]\\{3}`` and ``[6, 10]\\{8}`` on ``VARS[0]``: joined one way
    round they give ``[0, 10]\\{3}``, the other way ``[0, 10]\\{8}``."""
    return (
        {VARS[0]: canonical(Interval(0, 5), 3)},
        {VARS[0]: canonical(Interval(6, 10), 8)},
    )


def _check_pair(pair, join, widen):
    a, b = pair
    for left, right in ((a, b), (b, a)):
        joined = join(left, right)
        expected = _pointwise(left, right, lambda x, y: x.join(y))
        assert joined == expected
        assert (joined is left) == (expected == left)
        assert widen(left, right) == _pointwise(left, right, lambda x, y: x.widen(y))


@settings(max_examples=200, deadline=None)
@given(pair=_env_pairs(_normalize))
@example(pair=_holes(_normalize))
def test_auditor_env_join_and_widen_match_the_pointwise_definition(pair):
    _check_pair(pair, env_join, env_widen)


@settings(max_examples=200, deadline=None)
@given(pair=_env_pairs(_canonical))
@example(pair=_holes(_canonical))
def test_builder_env_join_and_widen_match_the_pointwise_definition(pair):
    _check_pair(pair, _env_join, _env_widen)


def test_value_join_keeps_the_left_operands_hole():
    for canonical, join in ((_normalize, env_join), (_canonical, _env_join)):
        a, b = _holes(canonical)
        assert str(join(a, b)[VARS[0]]) == "[0, 10]\\{3}"
        assert str(join(b, a)[VARS[0]]) == "[0, 10]\\{8}"


def test_join_hands_back_its_left_operand_only_when_unchanged():
    for canonical, join in ((_normalize, env_join), (_canonical, _env_join)):
        small = canonical(Interval(0, 5), None)
        wide = canonical(Interval(0, 9), None)
        top = canonical(Interval(NEG_INF, POS_INF), None)
        a = {VARS[0]: small, VARS[1]: wide}
        assert join(a, dict(a)) is a
        assert join(a, {VARS[0]: canonical(Interval(0, 5), None), VARS[1]: small}) is a
        assert join(a, {**a, VARS[2]: small}) is a
        assert join(a, {VARS[0]: small}) == {VARS[0]: small}
        assert join(a, {VARS[0]: wide, VARS[1]: wide}) == {VARS[0]: wide, VARS[1]: wide}
        with_top = {VARS[0]: small, VARS[1]: top}
        assert join(with_top, dict(with_top)) == {VARS[0]: small}
        assert join({}, a) == {}


def test_top_is_one_shared_instance():
    assert Interval.top() is Interval.top()
    assert ValueSet.top() is ValueSet.top()
    assert FeasRange.top() is FeasRange.top()
