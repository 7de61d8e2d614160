"""Regenerate the Figure-7 / Figure-8 report golden file.

The golden pins what the detection-rate and table-size reports say:

* for ``run_campaign(attacks=100)`` at opt 0 (the ``repro.reporting
  fig7`` default) and at ``CampaignConfig(opt_level=3)``, every
  workload's ``(total, changed, detected)`` and the exact
  :func:`~repro.reporting.render_figure7` text (the report shows one
  decimal of each rate, so an attack can move without the text
  changing);
* the exact stdout of ``python -m repro.reporting fig8``.

``tests/test_fig7_reports_golden.py`` recomputes everything and
compares.  Only regenerate when the attack recipe's or the table
builder's *semantics* intentionally change, never to paper over a
mismatch::

    PYTHONPATH=src python tests/golden/gen_fig7_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from repro import reporting
from repro.attacks.campaign import CampaignConfig
from repro.parallel.engine import run_campaign

#: The fig7 report's default attacks per workload.
ATTACKS = 100
OPT_LEVELS = (0, 3)

GOLDEN_PATH = Path(__file__).resolve().parent / "fig7_reports.json"


def campaign(opt_level: int):
    return run_campaign(attacks=ATTACKS, config=CampaignConfig(opt_level=opt_level))


def campaign_record(summary) -> dict:
    return {
        "workloads": {
            result.workload: [result.total, result.changed, result.detected]
            for result in summary.results
        },
        "text": reporting.render_figure7(summary),
    }


def report_text(artifact: str) -> str:
    """The stdout of ``python -m repro.reporting <artifact>``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        reporting.main([artifact])
    return out.getvalue()


def collect() -> dict:
    return {
        "attacks": ATTACKS,
        "fig7": {
            f"opt{level}": campaign_record(campaign(level)) for level in OPT_LEVELS
        },
        "fig8": report_text("fig8"),
    }


def main() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(collect(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
