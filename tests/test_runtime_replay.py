"""Tests for trace serialization and offline replay."""

import io

import pytest

from repro import IPDS, TamperSpec, compile_program, observed_run
from repro.interp import MemoryMap
from repro.runtime import BranchEvent, CallEvent, ReturnEvent
from repro.runtime.replay import (
    TraceFormatError,
    TraceRecorder,
    dump_trace,
    event_from_json,
    event_to_json,
    load_trace,
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


def test_replay_halt_on_alarm(program):
    address = MemoryMap(program.module).global_addresses[
        program.module.globals[0]
    ]
    events = record(
        program, inputs=[0, 1], tamper=TamperSpec("read", 2, address, 9)
    )
    alarms = IPDS(program.tables, halt_on_alarm=True).run(events)
    assert len(alarms) == 1
