"""Regenerate the detectability-prover golden file.

The golden pins what ``repro predict`` decides, point by point:

* every ``DetectabilityAnalysis.report()`` point of every workload at
  opt 0 and opt 3 — variable, function, block, value region, verdict
  and escaping-path witness;
* the ``attack_verdict`` verdict and witness of every fired record in
  ``attack_outcomes.json``, resolved to its variable and frames through
  ``MemoryMap`` and ``resolve_tamper_target`` exactly as
  ``join_outcomes`` does.

``repro predict`` prints only the first witness per (variable,
function) and the soundness validator keeps only counts, so this file
is the only pin on the other witnesses.  ``tests/test_predictions_golden.py``
recomputes every row and compares.  Only regenerate when the prover's
*semantics* intentionally change, never to paper over a mismatch::

    PYTHONPATH=src python tests/golden/gen_predictions.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.analysis.alias import analyze_aliases
from repro.analysis.purity import analyze_purity
from repro.interp.state import MemoryMap
from repro.pipeline import compile_program_cached
from repro.staticcheck.detectability import DetectabilityAnalysis
from repro.staticcheck.detectvalidate import UNJOINED, resolve_tamper_target
from repro.workloads import all_workloads

GOLDEN_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = GOLDEN_DIR / "predictions.json"
REPORT_OPT_LEVELS = (0, 3)

_SPEC = importlib.util.spec_from_file_location(
    "gen_attack_outcomes", GOLDEN_DIR / "gen_attack_outcomes.py"
)
outcomes_gen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outcomes_gen)


def outcome_records() -> dict:
    """The attack-outcome golden's records: cell -> workload -> model."""
    return json.loads(outcomes_gen.GOLDEN_PATH.read_text())["cells"]


def _analysis(program) -> DetectabilityAnalysis:
    analyze_aliases(program.module)
    return DetectabilityAnalysis(program, analyze_purity(program.module))


def report_rows(workload, opt_level: int) -> list:
    """``[variable, function, block, region, verdict, witness]`` per
    report point, in report order."""
    program = compile_program_cached(workload.source, workload.name, opt_level)
    return [
        [p.variable, p.function, p.block, str(p.region), p.verdict, list(p.witness)]
        for p in _analysis(program).report()
    ]


def attack_rows(workload, opt_level: int, records: list) -> list:
    """``[index, target, verdict, witness]`` per fired record."""
    program = compile_program_cached(workload.source, workload.name, opt_level)
    analysis = _analysis(program)
    memory = MemoryMap(program.module)
    rows = []
    for record in records:
        if not (record["fired"] and record.get("tamper_site")):
            continue
        verdict, witness = UNJOINED, ()
        resolved = resolve_tamper_target(
            memory, record["address"], record["tamper_site"]
        )
        if resolved is not None:
            var, word_offset, owner_frame = resolved
            frames = [(fn, block, index) for fn, block, index, _ in record["tamper_site"]]
            verdict, witness = analysis.attack_verdict(
                var, word_offset, record["value"], frames, owner_frame
            )
        rows.append([record["index"], record["target"], verdict, list(witness)])
    return rows


def cell_attack_rows(cell: str, workload) -> dict:
    """One workload's attack rows for one outcome-golden cell, keyed by
    threat model."""
    opt_level = next(c[1] for c in outcomes_gen.CELLS if c[0] == cell)
    per_model = outcome_records()[cell][workload.name]
    return {
        model: attack_rows(workload, opt_level, records)
        for model, records in per_model.items()
    }


def collect() -> dict:
    workloads = all_workloads()
    return {
        "points": {
            f"opt{level}": {w.name: report_rows(w, level) for w in workloads}
            for level in REPORT_OPT_LEVELS
        },
        "attacks": {
            cell: {w.name: cell_attack_rows(cell, w) for w in workloads}
            for cell, *_ in outcomes_gen.CELLS
        },
    }


def render(value, indent: int = 0) -> str:
    """Sorted JSON with one row (a list of scalars and a witness list)
    per line, so a changed verdict shows as a one-line diff."""
    pad = " " * indent
    if isinstance(value, dict):
        items = [
            f"{pad}  {json.dumps(key)}: {render(value[key], indent + 2)}"
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    rows = [f"{pad}  {json.dumps(row)}" for row in value]
    return "[\n" + ",\n".join(rows) + f"\n{pad}]" if rows else "[]"


def main() -> None:
    GOLDEN_PATH.write_text(render(collect()) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
