#!/usr/bin/env python3
"""Regenerate ``expected.json``: the program's outputs for the default seed.

    python3 perfbench/expected.py

The file pins, per program, the SET-action counts of every workload's
tables, fig7's changed/detected counts and fig9's instruction, cycle and
stall counts for every round up to ``--seconds 60``, and static-opt3's
audit-error and DET801/DET802/DET803 diagnostic counts.  Runs of the
default seed fail every operation whose output differs.  Regenerate only
on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import os
import sys

from run import EXPECTED, ROOT

#: The largest ``--seconds`` the benchmark accepts; the file covers
#: every round a run can have.
MAX_SECONDS = 60


def main() -> int:
    os.environ["REPRO_COMPILE_CACHE"] = "off"
    sys.path.insert(0, str(ROOT / "src"))
    from repro.parallel.cache import reset_compile_cache
    from workloads import DEFAULT_SEED, WORKLOADS

    expected = {}
    for name, cls in WORKLOADS.items():
        workload = cls(seed=DEFAULT_SEED, rounds=cls.rounds_for(MAX_SECONDS))
        reset_compile_cache()
        workload.setup()
        entry = {
            "set_actions": {
                program: sum(counts.values())
                for program, counts in workload.set_actions.items()
            }
        }
        results = [workload.run_round(index) for index in range(workload.rounds)]
        failed = sum(r.failed for r in results)
        if failed:
            print(f"{name}: {failed} operations failed; not writing", file=sys.stderr)
            return 1
        entry["rounds"] = [r.outputs for r in results]
        expected[name] = entry
        print(f"{name}: {len(results)} rounds", flush=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
