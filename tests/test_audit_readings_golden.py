"""The range-MFP audits reproduce their pinned readings byte for byte.

``tests/golden/audit_readings.json`` pins every diagnostic that
``correlation-audit`` and ``feasible-audit`` emit on each workload at
opt 0 and opt 3 once every SET claim is flipped.  Each ``COR205`` and
``FP703`` message names the value set the proof saw at its target, so
however the audits organise, share or speed up their fixpoints, every
row must come out identical; never "fix" a mismatch by regenerating the
golden.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.workloads import all_workloads

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_SPEC = importlib.util.spec_from_file_location(
    "gen_audit_readings", GOLDEN_DIR / "gen_audit_readings.py"
)
gen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen)

GOLDEN = json.loads(gen.GOLDEN_PATH.read_text())
WORKLOADS = {workload.name: workload for workload in all_workloads()}


def test_golden_covers_every_workload_and_both_passes():
    assert set(GOLDEN) == {f"opt{level}" for level in gen.OPT_LEVELS}
    for per_workload in GOLDEN.values():
        assert set(per_workload) == set(WORKLOADS)
    codes = {row[0] for rows in GOLDEN["opt3"].values() for row in rows}
    # Flipped claims are refuted by both re-proofs; a golden without
    # either code would pin nothing about that pass's fixpoints.
    assert {"COR205", "FP703"} <= codes


@pytest.mark.parametrize("level", gen.OPT_LEVELS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_flipped_audit_readings_match_golden(level, name):
    rows = gen.readings(WORKLOADS[name], level)
    assert json.dumps(rows) == json.dumps(GOLDEN[f"opt{level}"][name])
