"""The bookkeeping under both range fixpoints: environment joins.

``env_join``/``env_widen`` (auditor) and ``_env_join``/``_env_widen``
(builder) walk one environment and probe the other, reuse a range both
sides share, and do the one-hole join and widening inline.  They must
equal the pointwise definition: the key-set intersection, with the
value join (resp. widening) of ``a[var]`` and ``b[var]`` and top
dropped.  The value join is not commutative, so the operand order is
part of that definition.  Both fixpoints test a join for a change with
``is``, so a join hands back its left operand itself exactly when the
definition equals it.

Each side keeps a range as a flat ``(lo, hi, hole)`` tuple in its own
canonical form; the definitions below spell the value operations out
over :class:`~repro.analysis.ranges.Interval`.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import feasible
from repro.analysis.feasible import _env_join, _env_widen, canonical
from repro.analysis.ranges import NEG_INF, POS_INF, Interval
from repro.ir.instructions import Variable, VarKind
from repro.staticcheck import domain
from repro.staticcheck.domain import env_get, env_join, env_widen, normalize

VARS = [Variable(f"v{i}", VarKind.GLOBAL, 1, i) for i in range(4)]
#: The builder keys its environments on variable slots.
SLOTS = list(range(4))
_BOUNDS = st.one_of(st.integers(-4, 12), st.sampled_from([NEG_INF, POS_INF]))


def _values(canonical):
    """Ranges built the way the lattice builds them: any bounds (empty
    intervals included) and a hole put through the canonical
    constructor."""
    return st.builds(
        canonical,
        _BOUNDS,
        _BOUNDS,
        st.one_of(st.none(), st.integers(-4, 12)),
    )


@st.composite
def _env_pairs(draw, canonical, keys):
    """Two environments drawing ranges from one pool, so both sides
    often hold the very same range object for a variable."""
    pool = draw(st.lists(_values(canonical), min_size=1, max_size=5))
    index = st.integers(0, len(pool) - 1)

    def env():
        picks = draw(st.dictionaries(st.sampled_from(keys), index))
        return {var: pool[i] for var, i in picks.items()}

    return env(), env()


def _contains(values, v):
    lo, hi, hole = values
    return lo <= v <= hi and v != hole


def _join(canonical):
    """The one-hole join: the convex hull, keeping the first of the
    left and right holes that neither side contains."""

    def join(a, b):
        if a[0] > a[1]:
            return b
        if b[0] > b[1]:
            return a
        hull = Interval(a[0], a[1]).union_hull(Interval(b[0], b[1]))
        for hole in (a[2], b[2]):
            if hole is not None and not _contains(a, hole) and not _contains(b, hole):
                return canonical(hull.lo, hull.hi, hole)
        return (hull.lo, hull.hi, None)

    return join


def _widen(canonical):
    """Interval widening; a hole survives only where both sides keep it."""

    def widen(a, b):
        interval = Interval(a[0], a[1]).widen_against(Interval(b[0], b[1]))
        return canonical(interval.lo, interval.hi, a[2] if a[2] == b[2] else None)

    return widen


def _pointwise(a, b, operation, top):
    """The definition both joins had before: key-set intersection,
    ``a``'s value on the left, top dropped."""
    result = {}
    for var in a.keys() & b.keys():
        value = operation(a[var], b[var])
        if value != top:
            result[var] = value
    return result


def _holes(canonical, keys):
    """``[0, 5]\\{3}`` and ``[6, 10]\\{8}`` on the first key: joined one
    way round they give ``[0, 10]\\{3}``, the other way ``[0, 10]\\{8}``."""
    return (
        {keys[0]: canonical(0, 5, 3)},
        {keys[0]: canonical(6, 10, 8)},
    )


def _check_pair(pair, join, widen, canonical, top):
    a, b = pair
    for left, right in ((a, b), (b, a)):
        joined = join(left, right)
        expected = _pointwise(left, right, _join(canonical), top)
        assert joined == expected
        assert (joined is left) == (expected == left)
        assert widen(left, right) == _pointwise(left, right, _widen(canonical), top)


@settings(max_examples=200, deadline=None)
@given(pair=_env_pairs(normalize, VARS))
@example(pair=_holes(normalize, VARS))
def test_auditor_env_join_and_widen_match_the_pointwise_definition(pair):
    _check_pair(pair, env_join, env_widen, normalize, domain.TOP)


@settings(max_examples=200, deadline=None)
@given(pair=_env_pairs(canonical, SLOTS))
@example(pair=_holes(canonical, SLOTS))
def test_builder_env_join_and_widen_match_the_pointwise_definition(pair):
    _check_pair(pair, _env_join, _env_widen, canonical, feasible.TOP)


#: Each side: its canonical constructor, environment join, renderer
#: and environment keys.
_SIDES = (
    (normalize, env_join, domain.render, VARS),
    (canonical, _env_join, feasible.render, SLOTS),
)


def test_value_join_keeps_the_left_operands_hole():
    for canonical_, join, render, keys in _SIDES:
        a, b = _holes(canonical_, keys)
        assert render(join(a, b)[keys[0]]) == "[0, 10]\\{3}"
        assert render(join(b, a)[keys[0]]) == "[0, 10]\\{8}"


def test_join_hands_back_its_left_operand_only_when_unchanged():
    for canonical_, join, _, keys in _SIDES:
        small = canonical_(0, 5, None)
        wide = canonical_(0, 9, None)
        top = canonical_(NEG_INF, POS_INF, None)
        a = {keys[0]: small, keys[1]: wide}
        assert join(a, dict(a)) is a
        assert join(a, {keys[0]: canonical_(0, 5, None), keys[1]: small}) is a
        assert join(a, {**a, keys[2]: small}) is a
        assert join(a, {keys[0]: small}) == {keys[0]: small}
        assert join(a, {keys[0]: wide, keys[1]: wide}) == {keys[0]: wide, keys[1]: wide}
        with_top = {keys[0]: small, keys[1]: top}
        assert join(with_top, dict(with_top)) == {keys[0]: small}
        assert join({}, a) == {}


def test_top_is_one_shared_instance():
    assert Interval.top() is Interval.top()
    assert env_get({}, VARS[0]) is domain.TOP
    assert domain.TOP == feasible.TOP == (NEG_INF, POS_INF, None)
