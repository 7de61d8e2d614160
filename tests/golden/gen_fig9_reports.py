"""Regenerate the Figure-9 / detection-latency report golden file.

The golden pins what ``python -m repro.reporting fig9`` and ``latency``
report at their default scale (20):

* the raw :func:`~repro.reporting.figure9_data` fields of every
  workload — baseline and IPDS cycles, instructions, commit stalls and
  the ``repr`` of the mean check latency (the rendered reports show
  only four decimals of the ratio and one of the latency, so a cycle
  can move without the text changing);
* the exact stdout of both report commands.

``tests/test_fig9_reports_golden.py`` recomputes everything and
compares.  Only regenerate when the timing model's *semantics*
intentionally change, never to paper over a mismatch::

    PYTHONPATH=src python tests/golden/gen_fig9_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from repro import reporting

#: The reports' default session-length multiplier.
SCALE = 20
REPORTS = ("fig9", "latency")

GOLDEN_PATH = Path(__file__).resolve().parent / "fig9_reports.json"


def comparison_row(comparison) -> dict:
    return {
        "baseline_cycles": comparison.baseline_cycles,
        "ipds_cycles": comparison.ipds_cycles,
        "instructions": comparison.instructions,
        "commit_stalls": comparison.commit_stalls,
        # repr() keeps the float exact through JSON.
        "avg_check_latency": repr(comparison.avg_check_latency),
    }


def report_text(artifact: str) -> str:
    """The stdout of ``python -m repro.reporting <artifact>``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        reporting.main([artifact, "--scale", str(SCALE)])
    return out.getvalue()


def collect() -> dict:
    return {
        "scale": SCALE,
        "workloads": {
            comparison.workload: comparison_row(comparison)
            for comparison in reporting.figure9_data(scale=SCALE)
        },
        "reports": {artifact: report_text(artifact) for artifact in REPORTS},
    }


def main() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(collect(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
