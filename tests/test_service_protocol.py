"""The daemon's submit-spec boundary (``repro.service.protocol``).

A submit spec arrives as JSON from any client.  Each field must have
its declared type (a bool is not an int, a string is not a number) and
its declared range, or the submit fails with a ``ProtocolError``; no
field is coerced into a session that then runs on some other value.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp.interpreter import TamperSpec
from repro.service.engine import DetectionSession
from repro.service.protocol import _SPEC_FIELDS, ProtocolError, spec_from_payload

RUN = {"mode": "run", "workload": "telnetd"}
INDEXED = {"mode": "attack", "workload": "telnetd"}
TAMPER = {"trigger": 2, "address": "0x1000", "value": 0}
EXPLICIT = {"mode": "attack", "workload": "telnetd", "inputs": [5, 1]}


@pytest.mark.parametrize(
    "payload, field",
    [
        ({**RUN, "opt_level": 5}, "opt_level"),
        ({**RUN, "opt_level": True}, "opt_level"),
        ({**RUN, "opt_level": "3"}, "opt_level"),
        ({**RUN, "allow_unprotected": False}, "allow_unprotected"),
        ({**RUN, "forensics": "no"}, "forensics"),
        ({**INDEXED, "attack_index": -1}, "attack_index"),
        ({**INDEXED, "attack_index": "2"}, "attack_index"),
        ({**RUN, "step_limit": -3}, "step_limit"),
        ({**RUN, "inputs": [True, False]}, "inputs"),
        ({**RUN, "entry": "main"}, "entry"),
        ({**EXPLICIT, "tamper": {**TAMPER, "trigger": True}}, "trigger"),
        ({**EXPLICIT, "tamper": {**TAMPER, "value": 2.9}}, "value"),
        ({**EXPLICIT, "tamper": {**TAMPER, "trigger": 0}}, "trigger"),
        ({**EXPLICIT, "tamper": {**TAMPER, "trigger": -4}}, "trigger"),
    ],
    ids=[
        "opt-5",
        "opt-true",
        "opt-string",
        "allow-unprotected-unknown",
        "forensics-string",
        "attack-index-negative",
        "attack-index-string",
        "step-limit-negative",
        "inputs-bools",
        "entry-unknown",
        "tamper-trigger-bool",
        "tamper-value-float",
        "tamper-trigger-0",
        "tamper-trigger-negative",
    ],
)
def test_a_mistyped_or_out_of_range_field_fails_at_submit(payload, field):
    with pytest.raises(ProtocolError, match=field):
        spec_from_payload(payload)


def test_well_typed_specs_still_pass():
    spec = spec_from_payload(
        {**EXPLICIT, "opt_level": 3, "forensics": True, "tamper": TAMPER}
    )
    assert spec.tamper == TamperSpec("read", 2, 0x1000, 0)
    assert spec_from_payload(
        {**EXPLICIT, "tamper": {**TAMPER, "address": 4096}}
    ).tamper == spec.tamper
    assert spec_from_payload({**INDEXED, "attack_index": 0}).attack_index == 0
    assert spec_from_payload({**RUN, "step_limit": None}).step_limit is None
    session = DetectionSession(spec_from_payload({**RUN, "inputs": [1, 2]}))
    assert session.run().state == "completed"


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.sampled_from(
        ["run", "attack", "replay", "telnetd", "main", "input", "read", "0x1000"]
    ),
)
_KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["trigger", "value", "address", "trigger_kind"]),
)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=8,
)
#: A well-formed spec of each shape with up to three fields replaced by
#: arbitrary JSON, or arbitrary JSON as the whole spec.
_PAYLOADS = st.one_of(
    _JSON,
    st.builds(
        lambda base, fields: {**base, **fields},
        st.sampled_from(
            [RUN, {**INDEXED, "attack_index": 1}, {**EXPLICIT, "tamper": TAMPER}]
        ),
        st.dictionaries(
            st.sampled_from(sorted(_SPEC_FIELDS) + ["inputs", "tamper"]),
            st.one_of(_SCALARS, _JSON),
            max_size=3,
        ),
    ),
)


def _optional(value, kind):
    return value is None or type(value) is kind


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_any_json_spec_is_a_protocol_error_or_a_well_typed_spec(payload):
    try:
        spec = spec_from_payload(payload)
    except ProtocolError:
        return
    assert spec.mode in ("run", "attack", "replay")
    for name in ("workload", "source", "source_name", "trace_text"):
        assert _optional(getattr(spec, name), str), name
    assert type(spec.seed_prefix) is str
    assert spec.attack_model in ("input", "process")
    assert type(spec.opt_level) is int and 0 <= spec.opt_level <= 3
    assert _optional(spec.step_limit, int)
    assert spec.step_limit is None or spec.step_limit >= 1
    assert type(spec.flight_recorder_depth) is int
    assert spec.flight_recorder_depth >= 1
    assert _optional(spec.attack_index, int)
    assert spec.attack_index is None or spec.attack_index >= 0
    for name in ("forensics", "record_trace", "timed"):
        assert type(getattr(spec, name)) is bool, name
    assert spec.read_files is False
    assert type(spec.inputs) is tuple
    assert all(type(value) is int for value in spec.inputs)
    if spec.tamper is not None:
        assert spec.tamper.trigger_kind in ("read", "step")
        for name in ("trigger_value", "address", "value"):
            assert type(getattr(spec.tamper, name)) is int, name
