"""Regenerate the attack-outcome golden file.

The golden pins the full outcome of seeded campaign attacks — every
``AttackOutcome.to_record(include_site=True)`` field plus the rendered
IPDS alarm strings — for every workload under both threat models
(``input`` and ``process``) at opt 0 and opt 3, with forensics on.  A
``step_limit=40`` cell adds attacks whose trigger never fires inside
the budget, so the recipe's global-slot fallback is pinned too.

The attack recipe must reproduce these records byte for byte however
its runs are organised: ``tests/test_attack_outcomes.py`` recomputes
every cell and compares.  Only regenerate when the recipe's
*semantics* intentionally change, never to paper over a mismatch::

    PYTHONPATH=src python tests/golden/gen_attack_outcomes.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.attacks.campaign import CampaignConfig, run_attack
from repro.pipeline import compile_program_cached
from repro.workloads import all_workloads

#: Seed namespace; distinct from campaign/bench seeds on purpose.
SEED_PREFIX = "outcomes:"
MODELS = ("input", "process")
#: (cell name, opt level, attacks per workload and model, step limit).
CELLS = (
    ("opt0", 0, 4, 500_000),
    ("opt3", 3, 4, 500_000),
    # A budget short enough that some triggers never fire.
    ("opt0-limit40", 0, 3, 40),
)

GOLDEN_PATH = Path(__file__).resolve().parent / "attack_outcomes.json"


def cell_records(workload, opt_level: int, attacks: int, step_limit: int) -> dict:
    """One workload's records for one cell, keyed by threat model."""
    program = compile_program_cached(workload.source, workload.name, opt_level)
    records = {}
    for model in MODELS:
        config = CampaignConfig(
            step_limit=step_limit,
            attack_model=model,
            opt_level=opt_level,
            forensics=True,
        )
        records[model] = []
        for index in range(attacks):
            outcome = run_attack(
                program, workload, index, seed_prefix=SEED_PREFIX, config=config
            )
            record = outcome.to_record(workload.name, include_site=True)
            record["alarms"] = list(outcome.alarms)
            records[model].append(record)
    return records


def collect() -> dict:
    data: dict = {"seed_prefix": SEED_PREFIX, "cells": {}}
    for name, opt_level, attacks, step_limit in CELLS:
        data["cells"][name] = {
            workload.name: cell_records(workload, opt_level, attacks, step_limit)
            for workload in all_workloads()
        }
    return data


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(collect(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
