"""Tests for the §5.4 binary table image (function information table)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correlation.binary_image import (
    BitReader,
    BitWriter,
    ImageError,
    load_program,
    pack_program,
)
from repro.correlation.encoding import table_sizes
from repro.pipeline import compile_program, observed_run
from repro.runtime import IPDS, FlightRecorder
from repro.workloads import all_workloads


# ----------------------------------------------------------------------
# Bit packing
# ----------------------------------------------------------------------


def test_bitwriter_roundtrip_simple():
    writer = BitWriter()
    writer.write(5, 3)
    writer.write(1, 1)
    writer.write(1023, 10)
    reader = BitReader(writer.to_bytes())
    assert reader.read(3) == 5
    assert reader.read(1) == 1
    assert reader.read(10) == 1023


def test_bitwriter_rejects_overflow():
    writer = BitWriter()
    with pytest.raises(ImageError):
        writer.write(8, 3)
    with pytest.raises(ImageError):
        writer.write(-1, 4)


def test_bitreader_rejects_exhaustion():
    reader = BitReader(b"\xff")
    reader.read(8)
    with pytest.raises(ImageError):
        reader.read(1)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.tuples(st.integers(0, 2**16 - 1), st.integers(1, 17)),
        min_size=0,
        max_size=40,
    )
)
def test_bitstream_roundtrip_property(values):
    writer = BitWriter()
    clipped = [(v % (1 << w), w) for v, w in values]
    for v, w in clipped:
        writer.write(v, w)
    reader = BitReader(writer.to_bytes())
    for v, w in clipped:
        assert reader.read(w) == v


# ----------------------------------------------------------------------
# Image round trips
# ----------------------------------------------------------------------

SOURCE = """
int x;
int y;
void helper() { if (y < 3) { emit(9); } }
void main() {
  x = read_int();
  y = read_int();
  while (read_int()) {
    if (y < 5) { emit(1); }
    if (x > 10) { x = read_int(); } else { y = read_int(); }
    if (y < 10) { emit(2); }
    helper();
  }
}
"""


@pytest.fixture(scope="module")
def packed():
    program = compile_program(SOURCE)
    entries = {
        fn.name: program.module.function_extent(fn.name)[0]
        for fn in program.module.functions
    }
    image = pack_program(program.tables, entries)
    return program, entries, image


def test_image_magic_and_load(packed):
    program, entries, image = packed
    assert image[:4] == b"IPDS"
    loaded, loaded_entries = load_program(image)
    assert set(loaded.by_function) == set(program.tables.by_function)
    assert loaded_entries == entries


def test_roundtrip_preserves_tables_semantically(packed):
    program, _, image = packed
    loaded, _ = load_program(image)
    for name, original in program.tables.by_function.items():
        restored = loaded.by_function[name]
        assert restored.hash_params == original.hash_params
        assert restored.branch_pcs == original.branch_pcs
        assert restored.bcv_slots == original.bcv_slots
        assert dict(restored.bat) == dict(original.bat)


def test_loaded_tables_drive_an_identical_ipds(packed):
    program, _, image = packed
    loaded, _ = load_program(image)
    inputs = [3, 2, 1, 7, 1, 4, 1, 12, 0]
    original_ipds = IPDS(program.tables, flight_recorder=FlightRecorder(4096))
    loaded_ipds = IPDS(loaded, flight_recorder=FlightRecorder(4096))
    observed_run(program, observers=[original_ipds, loaded_ipds], inputs=inputs)
    assert original_ipds.alarms == loaded_ipds.alarms
    assert original_ipds.stats == loaded_ipds.stats
    # Every check and every BAT action fired the same way.
    records = original_ipds.flight_recorder.records
    assert original_ipds.flight_recorder.evictions == 0
    assert records == loaded_ipds.flight_recorder.records
    assert any(getattr(record, "transitions", ()) for record in records)


def test_bad_magic_rejected():
    with pytest.raises(ImageError):
        load_program(b"NOPE" + b"\x00" * 32)


def test_blob_sizes_match_fig8_accounting(packed):
    """The packed BCV/BAT blob bits equal the Fig. 8 encoded sizes."""
    program, _, image = packed
    from repro.correlation.binary_image import _pack_bat, _pack_bcv

    for tables in program.tables:
        sizes = table_sizes(tables)
        bcv_blob = _pack_bcv(tables)
        assert len(bcv_blob) == (sizes.bcv_bits + 7) // 8
        bat_blob, entries = _pack_bat(tables)
        assert entries == sizes.action_entries
        assert len(bat_blob) == (sizes.bat_bits + 7) // 8


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_roundtrip_all_workloads(name):
    workload = next(w for w in all_workloads() if w.name == name)
    program = compile_program(workload.source, name)
    entries = {
        fn.name: program.module.function_extent(fn.name)[0]
        for fn in program.module.functions
    }
    image = pack_program(program.tables, entries)
    loaded, loaded_entries = load_program(image)
    for fn_name, original in program.tables.by_function.items():
        restored = loaded.by_function[fn_name]
        assert restored.bcv_slots == original.bcv_slots
        assert dict(restored.bat) == dict(original.bat)
        assert restored.branch_pcs == original.branch_pcs
    assert loaded_entries == entries
