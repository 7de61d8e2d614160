"""Regenerate the table-images golden file.

The golden pins what the BAT construction emits, byte for byte, and
what the builder's entry-seeded feasible-path propagation sees.  For
each workload at opt 0-3 it records the sha256 of
``ProtectedProgram.to_image()``: the §5.4 image with every function's
BCV, BAT, hash parameters and provenance sidecar (each record's reason,
``implied`` range and pruned-edge witness).  At opt 3 it also records,
per function, the number of blocks
:func:`repro.analysis.feasible.entry_reachability` reaches and the
sorted pruned edges it returns (the DEAD405 lint's and the prover's
input).

``tests/test_table_images_golden.py`` recomputes every row and compares
them exactly.  Only regenerate when the tables are *meant* to change,
never to paper over a mismatch::

    PYTHONPATH=src python tests/golden/gen_table_images.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.alias import analyze_aliases
from repro.analysis.branch_info import analyze_branches
from repro.analysis.defs import DefinitionMap
from repro.analysis.feasible import entry_reachability, render_edge
from repro.analysis.purity import analyze_purity
from repro.pipeline import compile_program
from repro.workloads import all_workloads

GOLDEN_PATH = Path(__file__).resolve().parent / "table_images.json"
OPT_LEVELS = (0, 1, 2, 3)


def image_digest(workload, opt_level: int) -> str:
    program = compile_program(workload.source, workload.name, opt_level)
    return hashlib.sha256(program.to_image()).hexdigest()


def reachability(workload) -> dict:
    """``{function: [reached block count, sorted pruned edges]}`` of
    the entry-seeded propagation over the opt-3 build."""
    module = compile_program(workload.source, workload.name, 3).module
    analyze_aliases(module)
    purity = analyze_purity(module)
    rows = {}
    for fn in module.functions:
        def_map = DefinitionMap(fn, module, purity)
        reached, pruned = entry_reachability(
            fn, def_map, analyze_branches(fn, def_map)
        )
        rows[fn.name] = [
            len(reached),
            sorted(render_edge(label, taken) for label, taken in pruned),
        ]
    return rows


def collect() -> dict:
    workloads = all_workloads()
    return {
        "images": {
            f"opt{level}": {w.name: image_digest(w, level) for w in workloads}
            for level in OPT_LEVELS
        },
        "opt3_entry_reachability": {w.name: reachability(w) for w in workloads},
    }


def render(golden: dict) -> str:
    return json.dumps(golden, indent=2, sort_keys=True)


def main() -> None:
    GOLDEN_PATH.write_text(render(collect()) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
