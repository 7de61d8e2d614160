"""The attack recipe reproduces the pinned outcome golden byte for byte.

``tests/golden/attack_outcomes.json`` pins full attack records (tamper
site and forensics included) for every workload under both threat
models at opt 0 and opt 3, plus a ``step_limit=40`` cell whose
never-firing attacks exercise the global-slot fallback.  However the
recipe organises its runs, every record must come out identical;
never "fix" a mismatch by regenerating the golden.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.workloads import all_workloads

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_SPEC = importlib.util.spec_from_file_location(
    "gen_attack_outcomes", GOLDEN_DIR / "gen_attack_outcomes.py"
)
gen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen)

GOLDEN = json.loads(gen.GOLDEN_PATH.read_text())
WORKLOADS = {workload.name: workload for workload in all_workloads()}
CASES = [
    (cell, workload)
    for cell, *_ in gen.CELLS
    for workload in WORKLOADS
]


def test_golden_covers_every_cell_and_the_fallback():
    assert GOLDEN["seed_prefix"] == gen.SEED_PREFIX
    assert set(GOLDEN["cells"]) == {cell for cell, *_ in gen.CELLS}
    limited = [
        record
        for per_model in GOLDEN["cells"]["opt0-limit40"].values()
        for records in per_model.values()
        for record in records
    ]
    never_fired = [record for record in limited if not record["fired"]]
    # The fallback draws from the globals segment.
    assert never_fired
    assert all(r["target"].startswith("<global>.") for r in never_fired)
    assert all("tamper_site" not in r for r in never_fired)


@pytest.mark.parametrize("cell,name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_attack_records_match_golden(cell, name):
    _cell, opt_level, attacks, step_limit = next(c for c in gen.CELLS if c[0] == cell)
    records = gen.cell_records(WORKLOADS[name], opt_level, attacks, step_limit)
    golden = GOLDEN["cells"][cell][name]
    assert json.dumps(records, sort_keys=True) == json.dumps(golden, sort_keys=True)
