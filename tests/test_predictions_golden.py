"""The detectability prover reproduces its pinned verdicts byte for byte.

``tests/golden/predictions.json`` pins every ``report()`` point of every
workload at opt 0 and opt 3 (verdict and escaping-path witness), plus
the ``attack_verdict`` of every fired record in ``attack_outcomes.json``.
However the prover organises its walks, every row must come out
identical; never "fix" a mismatch by regenerating the golden.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.workloads import all_workloads

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_SPEC = importlib.util.spec_from_file_location(
    "gen_predictions", GOLDEN_DIR / "gen_predictions.py"
)
gen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen)

GOLDEN = json.loads(gen.GOLDEN_PATH.read_text())
WORKLOADS = {workload.name: workload for workload in all_workloads()}
CELLS = [cell for cell, *_ in gen.outcomes_gen.CELLS]


def test_golden_covers_every_workload_and_fired_record():
    assert set(GOLDEN["points"]) == {f"opt{n}" for n in gen.REPORT_OPT_LEVELS}
    for per_workload in GOLDEN["points"].values():
        assert set(per_workload) == set(WORKLOADS)
    assert set(GOLDEN["attacks"]) == set(CELLS)
    outcomes = gen.outcome_records()
    for cell in CELLS:
        for name in WORKLOADS:
            for model, records in outcomes[cell][name].items():
                fired = [r["index"] for r in records if r["fired"]]
                pinned = [row[0] for row in GOLDEN["attacks"][cell][name][model]]
                assert pinned == fired, (cell, name, model)


@pytest.mark.parametrize("level", gen.REPORT_OPT_LEVELS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_report_points_match_golden(level, name):
    rows = gen.report_rows(WORKLOADS[name], level)
    assert json.dumps(rows) == json.dumps(GOLDEN["points"][f"opt{level}"][name])


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_attack_verdicts_match_golden(cell, name):
    rows = gen.cell_attack_rows(cell, WORKLOADS[name])
    golden = GOLDEN["attacks"][cell][name]
    assert json.dumps(rows, sort_keys=True) == json.dumps(golden, sort_keys=True)
