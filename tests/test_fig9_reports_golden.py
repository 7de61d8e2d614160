"""The Figure-9 and detection-latency reports reproduce their pinned bytes.

``tests/golden/fig9_reports.json`` pins the raw cycle counts behind
``python -m repro.reporting fig9`` / ``latency`` and the exact text of
both reports.  However the timing model is organised, every field must
come out identical; never "fix" a mismatch by regenerating the golden.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro import reporting
from repro.workloads import all_workloads

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_SPEC = importlib.util.spec_from_file_location(
    "gen_fig9_reports", GOLDEN_DIR / "gen_fig9_reports.py"
)
gen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen)

GOLDEN = json.loads(gen.GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def comparisons():
    return reporting.figure9_data(scale=GOLDEN["scale"])


def test_raw_fields_match_golden(comparisons):
    assert [c.workload for c in comparisons] == [
        w.name for w in all_workloads()
    ]
    recomputed = {c.workload: gen.comparison_row(c) for c in comparisons}
    assert recomputed == GOLDEN["workloads"]


@pytest.mark.parametrize("artifact", gen.REPORTS)
def test_report_text_matches_golden(artifact, comparisons):
    render = (
        reporting.render_figure9 if artifact == "fig9"
        else reporting.render_latency
    )
    # The report command prints its one block and a newline.
    assert render(comparisons) + "\n" == GOLDEN["reports"][artifact]


def test_report_command_prints_golden_bytes(capsys):
    assert reporting.main(["fig9", "--scale", str(GOLDEN["scale"])]) == 0
    assert capsys.readouterr().out == GOLDEN["reports"]["fig9"]
