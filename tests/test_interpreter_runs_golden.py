"""The interpreter reproduces the pinned run golden byte for byte.

``tests/golden/interpreter_runs.json`` pins, for the ten workloads and
two handwritten sources at opt 0 and opt 3: full runs under both
deliveries, step limits that end mid-block, step triggers (also at the
step limit), read triggers at every read, a division by zero in the
middle of a block and recursion past a call-depth limit.  Each record
holds the status, step count, reads, outputs, return value, tamper
site, and digests of the branch trace and of the delivered event and
batch stream.  However the interpreter executes, every record must come
out identical; never "fix" a mismatch by regenerating the golden.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_SPEC = importlib.util.spec_from_file_location(
    "gen_interpreter_runs", GOLDEN_DIR / "gen_interpreter_runs.py"
)
gen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen)

GOLDEN = json.loads(gen.GOLDEN_PATH.read_text())
CASES = gen.cell_names()


def test_golden_covers_every_end():
    assert GOLDEN["seed_prefix"] == gen.SEED_PREFIX
    cells = GOLDEN["cells"]
    assert {(cell, name) for cell in cells for name in cells[cell]} == set(CASES)
    statuses = {
        record["status"]
        for programs in GOLDEN["cells"].values()
        for cell in programs.values()
        for section in ("step_limits", "step_triggers_at_limit")
        for record in cell[section].values()
    }
    assert statuses == {"ok", "step_limit", "div_by_zero", "call_depth"}
    fired = [
        record
        for programs in GOLDEN["cells"].values()
        for cell in programs.values()
        for record in cell["read_triggers"].values()
        if record["tamper_fired"]
    ]
    assert fired and all(record["live_sha256"] for record in fired)


@pytest.mark.parametrize("cell,name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_interpreter_runs_match_golden(cell, name):
    records = gen.cell_records(cell, name)
    golden = GOLDEN["cells"][cell][name]
    assert json.dumps(records, sort_keys=True) == json.dumps(golden, sort_keys=True)
