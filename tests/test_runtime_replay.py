"""Tests for trace serialization and offline replay."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IPDS, TamperSpec, compile_program, observed_run
from repro.interp import MemoryMap
from repro.lang.errors import ReproError
from repro.runtime import Alarm, BranchEvent, CallEvent, ReturnEvent
from repro.runtime.replay import (
    TraceFormatError,
    TraceRecorder,
    dump_trace,
    event_from_json,
    event_to_json,
    load_trace,
    read_trace,
)

SOURCE = """
int user;
void main() {
  user = read_int();
  if (user == 0) { emit(1); } else { emit(2); }
  int x = read_int();
  if (user == 0) { emit(3); } else { emit(4); }
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_program(SOURCE)


def record(program, inputs, tamper=None):
    recorder = TraceRecorder()
    observed_run(program, observers=[recorder], inputs=inputs, tamper=tamper)
    return recorder.events


def test_event_json_roundtrip():
    events = [
        CallEvent("main"),
        BranchEvent("main", 0x400010, True),
        BranchEvent("main", 0x400020, False),
        ReturnEvent("main"),
    ]
    for event in events:
        assert event_from_json(event_to_json(event)) == event


def test_bad_lines_rejected():
    with pytest.raises(TraceFormatError):
        event_from_json("not json")
    with pytest.raises(TraceFormatError):
        event_from_json('{"k": "mystery"}')
    with pytest.raises(TraceFormatError):
        event_from_json('{"k": "br"}')


def test_dump_and_load_stream(program):
    events = record(program, inputs=[5, 1])
    buffer = io.StringIO()
    count = dump_trace(events, buffer)
    assert count == len(events)
    buffer.seek(0)
    assert list(load_trace(buffer)) == events


def test_blank_lines_skipped():
    buffer = io.StringIO('\n{"k": "call", "fn": "main"}\n\n')
    assert list(load_trace(buffer)) == [CallEvent("main")]


def test_offline_replay_matches_online(program):
    address = MemoryMap(program.module).global_addresses[
        program.module.globals[0]
    ]
    tamper = TamperSpec("read", 2, address, 0)
    events = record(program, inputs=[5, 1], tamper=tamper)
    # Round-trip through serialization, then replay offline.
    buffer = io.StringIO()
    dump_trace(events, buffer)
    buffer.seek(0)
    alarms = IPDS(program.tables).run(load_trace(buffer))
    assert len(alarms) == 1
    assert alarms[0].function_name == "main"


def test_clean_replay_is_silent(program):
    events = record(program, inputs=[5, 1])
    assert IPDS(program.tables).run(events) == []




@pytest.mark.parametrize(
    "line",
    [
        '{"k": "call", "fn": 7}',
        '{"k": "ret", "fn": null}',
        '{"k": "br", "fn": "main", "pc": "0x10", "t": 1}',
        '{"k": "br", "fn": "main", "pc": 16.0, "t": 1}',
        '{"k": "br", "fn": "main", "pc": true, "t": 1}',
        '{"k": "br", "fn": "main", "pc": 16, "t": 2}',
        '{"k": "br", "fn": "main", "pc": 16, "t": "1"}',
        '{"k": "br", "fn": "main", "pc": 16, "t": 1.0}',
        '{"k": "br", "fn": "main", "pc": 1' + "0" * 5000 + ', "t": 1}',
        "[" * 100_000,
    ],
    ids=[
        "fn-int", "fn-null", "pc-str", "pc-float", "pc-bool", "t-2",
        "t-str", "t-float", "pc-too-long", "too-deep",
    ],
)
def test_field_types_are_checked_not_coerced(line):
    with pytest.raises(TraceFormatError):
        event_from_json(line)


def test_boolean_and_integer_directions_both_load():
    for taken in ("true", "1"):
        line = f'{{"k": "br", "fn": "main", "pc": 16, "t": {taken}}}'
        assert event_from_json(line) == BranchEvent("main", 16, True)
    for taken in ("false", "0"):
        line = f'{{"k": "br", "fn": "main", "pc": 16, "t": {taken}}}'
        assert event_from_json(line) == BranchEvent("main", 16, False)


def test_undecodable_trace_file_is_a_trace_format_error(program, tmp_path):
    events = record(program, inputs=[5, 1])
    buffer = io.StringIO()
    dump_trace(events, buffer)
    path = tmp_path / "utf16.jsonl"
    path.write_bytes(buffer.getvalue().encode("utf-16"))  # starts ff fe
    with pytest.raises(TraceFormatError, match="not a text trace"):
        read_trace(str(path))


@pytest.fixture(scope="module")
def attack_trace(program, tmp_path_factory):
    """The recorded figure-1 attack trace (it alarms on replay) and a
    scratch file for its mutants."""
    address = MemoryMap(program.module).global_addresses[
        program.module.globals[0]
    ]
    events = record(
        program, inputs=[5, 1], tamper=TamperSpec("read", 2, address, 0)
    )
    buffer = io.StringIO()
    dump_trace(events, buffer)
    data = buffer.getvalue().encode("utf-8")
    assert IPDS(program.tables).run(load_trace(io.StringIO(buffer.getvalue())))
    return data, tmp_path_factory.mktemp("fuzz") / "mutant.jsonl"


MUTATION = st.tuples(
    st.sampled_from(["flip", "delete", "insert"]),
    st.integers(min_value=0),
    st.integers(min_value=1, max_value=255),
)


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_trace_replays_or_raises_a_repro_error(
    program, attack_trace, mutations
):
    """Loading a recorded trace with 1-4 byte flips, deletions or
    insertions either replays to a list of alarms or raises a
    :class:`ReproError` — never another exception."""
    data, path = attack_trace
    mutant = bytearray(data)
    for kind, position, value in mutations:
        if kind == "insert":
            mutant.insert(position % (len(mutant) + 1), value)
        elif mutant:
            index = position % len(mutant)
            if kind == "flip":
                mutant[index] ^= value
            else:
                del mutant[index]
    path.write_bytes(bytes(mutant))
    try:
        events = load_trace(io.StringIO(read_trace(str(path))))
        alarms = IPDS(program.tables).run(events)
    except ReproError:
        return
    assert all(isinstance(alarm, Alarm) for alarm in alarms)
