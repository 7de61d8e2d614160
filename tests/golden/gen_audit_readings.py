"""Regenerate the audit-readings golden file.

The golden pins what the two range-MFP re-proof passes,
``correlation-audit`` and ``feasible-audit``, see at the target of
every live SET entry.  For each workload at opt 0 and opt 3 the
generator:

* compiles a private program with ``compile_program`` (never one held
  by the compile cache, because the next step mutates it);
* flips every ``SET_T``/``SET_NT`` action in every function's BAT, and
  the ``action`` of every provenance record that claims one;
* runs ``run_passes(program, names=("correlation-audit",
  "feasible-audit"))`` and records each diagnostic's code, function,
  block and message.

A flipped claim is refuted wherever its target is reached, and each
``COR205``/``FP703`` message names the value set the proof saw at the
target's checked load.  So the golden pins every live entry's fixpoint
reading through the audit's own code path.  A flip changes no event
key and no witness, so it cuts each proof at the same edges as a clean
audit does.  ``tests/test_audit_readings_golden.py`` recomputes every
row and compares byte for byte.  Only regenerate when the audit's
*semantics* intentionally change, never to paper over a mismatch::

    PYTHONPATH=src python tests/golden/gen_audit_readings.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.correlation.actions import BranchAction
from repro.pipeline import compile_program
from repro.staticcheck import run_passes
from repro.workloads import all_workloads

GOLDEN_PATH = Path(__file__).resolve().parent / "audit_readings.json"
OPT_LEVELS = (0, 3)
PASSES = ("correlation-audit", "feasible-audit")

_FLIP = {
    BranchAction.SET_T: BranchAction.SET_NT,
    BranchAction.SET_NT: BranchAction.SET_T,
}


def flip_claims(program) -> None:
    """Flip every SET claim of a privately compiled program, in place."""
    by_function = program.tables.by_function
    for name, tables in by_function.items():
        bat = {
            key: tuple(
                (target, _FLIP.get(action, action)) for target, action in entries
            )
            for key, entries in tables.bat.items()
        }
        provenance = tuple(
            dataclasses.replace(
                record, action=_FLIP[BranchAction(record.action)].value
            )
            if BranchAction(record.action) in _FLIP
            else record
            for record in tables.provenance
        )
        by_function[name] = dataclasses.replace(
            tables, bat=bat, provenance=provenance
        )


def readings(workload, opt_level: int) -> list:
    """``[code, function, block, message]`` per diagnostic of the
    flipped program, in ``run_passes`` order."""
    program = compile_program(workload.source, workload.name, opt_level)
    flip_claims(program)
    return [
        [d.code, d.span.function, d.span.block, d.message]
        for d in run_passes(program, names=PASSES)
    ]


def collect() -> dict:
    return {
        f"opt{level}": {w.name: readings(w, level) for w in all_workloads()}
        for level in OPT_LEVELS
    }


def render(golden: dict) -> str:
    """Sorted JSON with one diagnostic per line, so a changed reading
    shows as a one-line diff."""
    levels = []
    for level in sorted(golden):
        workloads = []
        for name in sorted(golden[level]):
            rows = golden[level][name]
            body = (
                "[\n" + ",\n".join(f"      {json.dumps(r)}" for r in rows) + "\n    ]"
                if rows
                else "[]"
            )
            workloads.append(f"    {json.dumps(name)}: {body}")
        levels.append(f"  {json.dumps(level)}: {{\n" + ",\n".join(workloads) + "\n  }")
    return "{\n" + ",\n".join(levels) + "\n}"


def main() -> None:
    GOLDEN_PATH.write_text(render(collect()) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
