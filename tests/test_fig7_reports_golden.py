"""The Figure-7 and Figure-8 reports reproduce their pinned bytes.

``tests/golden/fig7_reports.json`` pins every workload's ``(total,
changed, detected)`` counts of the 100-attack Figure-7 campaign at opt
0 and opt 3, the exact ``render_figure7`` text of both, and the exact
text of ``python -m repro.reporting fig7`` and ``fig8``.  However the
attack path or the table builder is organised, every field must come
out identical; never "fix" a mismatch by regenerating the golden.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import reporting
from repro.workloads import all_workloads

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_SPEC = importlib.util.spec_from_file_location(
    "gen_fig7_reports", GOLDEN_DIR / "gen_fig7_reports.py"
)
gen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen)

GOLDEN = json.loads(gen.GOLDEN_PATH.read_text())


@pytest.mark.parametrize("opt_level", gen.OPT_LEVELS)
def test_campaign_counts_and_text_match_golden(opt_level):
    summary = gen.campaign(opt_level)
    assert [r.workload for r in summary.results] == [
        w.name for w in all_workloads()
    ]
    assert gen.campaign_record(summary) == GOLDEN["fig7"][f"opt{opt_level}"]


def test_fig7_command_prints_golden_bytes(capsys):
    assert GOLDEN["attacks"] == gen.ATTACKS
    assert reporting.main(["fig7"]) == 0
    # The report command prints its one block and a newline.
    assert capsys.readouterr().out == GOLDEN["fig7"]["opt0"]["text"] + "\n"


def test_fig8_command_prints_golden_bytes(capsys):
    assert reporting.main(["fig8"]) == 0
    assert capsys.readouterr().out == GOLDEN["fig8"]
