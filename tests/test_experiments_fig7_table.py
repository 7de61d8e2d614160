"""EXPERIMENTS.md's Figure-7 table is what the code measures.

The table under "## Figure 7" quotes the 100-attack campaign of
``python -m repro.reporting fig7 --attacks 100``.  This test reruns
that campaign and compares every row, the average included, at the
one decimal the table prints.
"""

import re
from pathlib import Path

from repro.parallel.engine import run_campaign

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
_PERCENT = re.compile(r"(\d+\.\d)%")


def _figure7_rows():
    """``{benchmark: (changed, detected, detected/changed)}`` as quoted."""
    text = EXPERIMENTS.read_text(encoding="utf-8")
    section = text.split("\n## Figure 7", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("| ") or len(cells) != 4:
            continue
        if cells[0] == "benchmark":
            continue
        # The first percentage of each cell is ours; the average row
        # adds the paper's in parentheses.
        rows[cells[0].strip("*")] = tuple(
            _PERCENT.search(cell).group(1) for cell in cells[1:]
        )
    return rows


def test_figure7_table_matches_the_100_attack_campaign():
    summary = run_campaign(attacks=100)
    measured = {
        result.workload: (
            f"{result.pct_changed:.1f}",
            f"{result.pct_detected:.1f}",
            f"{result.pct_detected_of_changed:.1f}",
        )
        for result in summary.results
    }
    measured["average"] = (
        f"{summary.avg_pct_changed:.1f}",
        f"{summary.avg_pct_detected:.1f}",
        f"{summary.avg_pct_detected_of_changed:.1f}",
    )
    assert _figure7_rows() == measured
