"""The bookkeeping under both range fixpoints: hashing and joins.

* ``Variable`` and the auditor's ``LoadTerm`` hash once, when built,
  and never pickle the hash.  String hashes are salted per process, so
  a variable loaded from the disk compile cache or a shard pickle must
  hash like a freshly built one in the loading process.
* ``env_join``/``env_widen`` (auditor) and ``_env_join``/``_env_widen``
  (builder) walk one environment and probe the other, and reuse a value
  object both sides share.  They must equal the pointwise definition:
  the key-set intersection, with ``a[var].join(b[var])`` (resp.
  ``widen``) and top dropped.  The value join is not commutative, so the
  operand order is part of that definition.
"""

import copyreg
import dataclasses
import io
import os
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.feasible import FeasRange, _canonical, _env_join, _env_widen
from repro.analysis.ranges import NEG_INF, POS_INF, Interval
from repro.ir.instructions import Variable, VarKind
from repro.staticcheck.domain import ValueSet, _normalize, env_join, env_widen
SRC = Path(__file__).resolve().parent.parent / "src"

_BUILD = """
from repro.ir.instructions import Variable, VarKind
from repro.staticcheck.facts import LoadTerm
var = Variable("flag", VarKind.GLOBAL, 1, 7, is_pointer=True)
term = LoadTerm(var, 3, "bb2")
"""

_DUMP = _BUILD + """
import pickle, sys
sys.stdout.buffer.write(pickle.dumps((var, term, {var: "v", term: "t"})))
"""

_LOAD = _BUILD + """
import pickle, sys
loaded_var, loaded_term, loaded_dict = pickle.loads(sys.stdin.buffer.read())
for fresh, loaded in ((var, loaded_var), (term, loaded_term)):
    assert loaded == fresh and hash(loaded) == hash(fresh), (loaded, fresh)
    assert {fresh: 1}[loaded] == 1 and {loaded: 1}[fresh] == 1
assert loaded_dict[var] == "v" and loaded_dict[term] == "t"
print("ok")
"""


def _python(code: str, hash_seed: str, stdin: bytes = b"") -> bytes:
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        env=env,
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_pickled_variables_and_load_terms_rehash_under_another_hash_seed():
    blob = _python(_DUMP, hash_seed="1")
    assert _python(_LOAD, hash_seed="2", stdin=blob).strip() == b"ok"


class _ParentFormatPickler(pickle.Pickler):
    """Pickles a ``Variable`` the way it was pickled before its hash was
    cached: the class plus the bare instance dict of its six fields."""

    def reducer_override(self, obj):
        if type(obj) is Variable:
            state = {
                f.name: getattr(obj, f.name)
                for f in dataclasses.fields(obj)
                if f.init
            }
            return copyreg.__newobj__, (Variable,), state
        return NotImplemented


def test_variable_pickle_keeps_the_hashless_format_and_loads_it():
    fresh = Variable("buf", VarKind.LOCAL, 4, 2, is_array=True)
    buffer = io.BytesIO()
    _ParentFormatPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(fresh)
    legacy = buffer.getvalue()
    # Same bytes as before the hash was cached, so existing compile
    # cache entries stay valid without a schema bump.
    assert pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL) == legacy
    loaded = pickle.loads(legacy)
    assert loaded == fresh and hash(loaded) == hash(fresh)
    assert repr(loaded) == repr(fresh)


# -- joins ---------------------------------------------------------------

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
        assert join(left, right) == _pointwise(left, right, lambda x, y: x.join(y))
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


def test_top_is_one_shared_instance():
    assert Interval.top() is Interval.top()
    assert ValueSet.top() is ValueSet.top()
    assert FeasRange.top() is FeasRange.top()
