"""The compiler reproduces its pinned table images byte for byte.

``tests/golden/table_images.json`` pins the sha256 of every workload's
table image at opt 0-3 (BCV, BAT, hash parameters and every provenance
record, ``implied`` ranges and witnesses included) and, at opt 3, each
function's entry-seeded feasible-path reachability.  However the range
fixpoints or the BAT construction organise or speed up their work,
every row must come out identical; never "fix" a mismatch by
regenerating the golden.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.workloads import all_workloads

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_SPEC = importlib.util.spec_from_file_location(
    "gen_table_images", GOLDEN_DIR / "gen_table_images.py"
)
gen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen)

GOLDEN = json.loads(gen.GOLDEN_PATH.read_text())
WORKLOADS = {workload.name: workload for workload in all_workloads()}


def test_golden_covers_every_workload_and_level():
    assert set(GOLDEN["images"]) == {f"opt{level}" for level in gen.OPT_LEVELS}
    for per_workload in GOLDEN["images"].values():
        assert set(per_workload) == set(WORKLOADS)
    assert set(GOLDEN["opt3_entry_reachability"]) == set(WORKLOADS)
    # The opt-3 propagation prunes somewhere, or the rows pin nothing
    # about its refused directions.
    assert any(
        pruned
        for rows in GOLDEN["opt3_entry_reachability"].values()
        for _, pruned in rows.values()
    )


@pytest.mark.parametrize("level", gen.OPT_LEVELS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_table_image_matches_golden(level, name):
    digest = gen.image_digest(WORKLOADS[name], level)
    assert digest == GOLDEN["images"][f"opt{level}"][name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_opt3_entry_reachability_matches_golden(name):
    rows = gen.reachability(WORKLOADS[name])
    assert json.dumps(rows, sort_keys=True) == json.dumps(
        GOLDEN["opt3_entry_reachability"][name], sort_keys=True
    )
