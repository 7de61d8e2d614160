"""Regenerate the interpreter-run golden file.

The golden pins what one execution looks like from the outside, run by
run: the status it ends with, the exact step count, the inputs it
consumed, its outputs and return value, whether and where a tampering
fired, and SHA-256 digests of its branch trace and of the stream its
observers received.  The stream digest covers every call, return and
branch event and every delivered instruction batch, in order, with the
batch's length and its ``(address, touched)`` pairs, so a moved batch
boundary changes it.

Every run is observed by the IPDS plus a recorder.  Each cell is one
program at one opt level — the ten workloads on seeded inputs, plus two
handwritten sources (a division by zero in the middle of a block, and
recursion under a small call-depth limit) — and covers:

* the full run, batched and with per-instruction delivery (selected by
  attaching :class:`OneAtATime`, an observer with only
  ``on_instruction``);
* step limits that end mid-block (the Fibonacci numbers below the run's
  length, the length itself and one less);
* ``LazyTamper`` step triggers spread over the run, each also under a
  step limit equal to the trigger;
* ``LazyTamper`` read triggers at every read, and one past the last.

``tests/test_interpreter_runs_golden.py`` recomputes every cell and
compares.  Only regenerate when the interpreter's *semantics*
intentionally change, never to paper over a mismatch::

    PYTHONPATH=src python tests/golden/gen_interpreter_runs.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.attacks.campaign import TAMPER_VALUES
from repro.interp.interpreter import Interpreter, LazyTamper
from repro.pipeline import compile_program_cached
from repro.runtime.ipds import IPDS
from repro.runtime.observer import ExecutionObserver
from repro.workloads import all_workloads

#: Seed namespace; distinct from campaign/bench seeds on purpose.
SEED_PREFIX = "interp:"
OPT_LEVELS = (0, 3)
#: Step triggers per run, spread evenly from step 1 to the last step.
STEP_TRIGGERS = 8

DIVISION_SOURCE = """
int q;
int r;
void main() {
  int a = read_int();
  int b = read_int();
  int c = read_int();
  q = a + 1;
  q = q / b;
  r = a % c;
  emit(q);
  emit(r);
}
"""

RECURSION_SOURCE = """
int calls;
int depth(int n) {
  calls = calls + 1;
  if (n <= 0) { return 0; }
  return depth(n - 1) + 1;
}
void main() {
  int n = read_int();
  emit(depth(n));
  emit(calls);
}
"""

#: Handwritten programs: (name, source, inputs, call-depth limit).
HANDWRITTEN = (
    ("div-ok", DIVISION_SOURCE, [-7, 2, 3], 256),
    ("div-by-zero", DIVISION_SOURCE, [-7, 0, 3], 256),
    ("mod-by-zero", DIVISION_SOURCE, [9, -2, 0], 256),
    ("recursion-ok", RECURSION_SOURCE, [3], 6),
    ("recursion-depth", RECURSION_SOURCE, [10], 6),
)

GOLDEN_PATH = Path(__file__).resolve().parent / "interpreter_runs.json"


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


class StreamRecorder(ExecutionObserver):
    """Logs the delivered stream: events and batches, in order."""

    def __init__(self) -> None:
        self.log: list = []
        self.batches = 0

    def on_call(self, event) -> None:
        self.log.append(("call", event.function_name))

    def on_return(self, event) -> None:
        self.log.append(("ret", event.function_name))

    def on_branch(self, event) -> None:
        self.log.append(("br", event.function_name, event.pc, event.taken))

    def on_instruction_batch(self, instructions, touched, count) -> None:
        self.batches += 1
        self.log.append(
            (
                "batch",
                count,
                [(instructions[i].address, touched[i]) for i in range(count)],
            )
        )


class OneAtATime(ExecutionObserver):
    """Defines only ``on_instruction``, so the bus delivers every
    instruction as it commits (the recorder gets batches of one)."""

    def on_instruction(self, instruction, touched) -> None:
        pass


def lazy_tamper(kind: str, value: int, seed: str, seen: list) -> LazyTamper:
    """A tampering that draws its word from the live stack and the
    globals, and logs a digest of the live slots it was offered."""
    rng = random.Random(seed)

    def choose(live, memory):
        seen.append(_sha(live))
        address, _owner, _var = rng.choice(list(live) + memory.global_slots())
        return address, rng.choice(TAMPER_VALUES)

    return LazyTamper(kind, value, choose)


def run_record(
    program,
    inputs,
    *,
    step_limit: int = 2_000_000,
    call_depth_limit: int = 256,
    tamper=None,
    batched: bool = True,
) -> dict:
    ipds = IPDS(program.tables)
    recorder = StreamRecorder()
    result = Interpreter(
        program.module,
        inputs=inputs,
        step_limit=step_limit,
        call_depth_limit=call_depth_limit,
        tamper=tamper,
        observers=[ipds, recorder] if batched else [ipds, recorder, OneAtATime()],
    ).run()
    site = result.tamper_site
    return {
        "status": result.status.value,
        "steps": result.steps,
        "reads_consumed": result.reads_consumed,
        "outputs": result.outputs,
        "return_value": result.return_value,
        "tamper_fired": result.tamper_fired,
        "tamper_site": None if site is None else [list(f) for f in site],
        "alarms_sha256": _sha([str(alarm) for alarm in ipds.alarms]),
        "branch_trace_sha256": _sha(result.branch_trace),
        "stream_sha256": _sha(recorder.log),
        "batches": recorder.batches,
    }


def _tampered(program, inputs, kind, value, seed, **kwargs) -> dict:
    seen: list = []
    record = run_record(
        program, inputs, tamper=lazy_tamper(kind, value, seed, seen), **kwargs
    )
    record["live_sha256"] = seen[0] if seen else None
    return record


def step_limits(steps: int) -> list:
    limits = []
    a, b = 1, 2
    while a < steps:
        limits.append(a)
        a, b = b, a + b
    return sorted(set(limits) | {max(steps - 1, 1), steps})


def step_triggers(steps: int) -> list:
    return sorted(
        {1 + k * (steps - 1) // (STEP_TRIGGERS - 1) for k in range(STEP_TRIGGERS)}
    )


def program_records(program, inputs, seed: str, call_depth_limit: int = 256) -> dict:
    """Every run of one cell."""
    kwargs = {"call_depth_limit": call_depth_limit}
    full = run_record(program, inputs, **kwargs)
    steps = full["steps"]
    return {
        "inputs": list(inputs),
        "full": full,
        "unbatched": run_record(program, inputs, batched=False, **kwargs),
        "step_limits": {
            str(limit): run_record(program, inputs, step_limit=limit, **kwargs)
            for limit in step_limits(steps)
        },
        "step_triggers": {
            str(step): _tampered(
                program, inputs, "step", step, f"{seed}:s{step}", **kwargs
            )
            for step in step_triggers(steps)
        },
        "step_triggers_at_limit": {
            str(step): _tampered(
                program, inputs, "step", step, f"{seed}:s{step}",
                step_limit=step, **kwargs,
            )
            for step in step_triggers(steps)
        },
        "read_triggers": {
            str(read): _tampered(
                program, inputs, "read", read, f"{seed}:r{read}", **kwargs
            )
            for read in range(1, full["reads_consumed"] + 2)
        },
    }


def cell_names() -> list:
    workloads = [w.name for w in all_workloads()]
    handwritten = [name for name, *_ in HANDWRITTEN]
    return [
        (f"opt{opt}", name) for opt in OPT_LEVELS for name in workloads + handwritten
    ]


def cell_records(cell: str, name: str) -> dict:
    opt_level = int(cell[len("opt"):])
    for hand_name, source, inputs, depth_limit in HANDWRITTEN:
        if hand_name == name:
            program = compile_program_cached(source, hand_name, opt_level)
            return program_records(
                program, inputs, f"{SEED_PREFIX}{cell}:{name}", depth_limit
            )
    workload = next(w for w in all_workloads() if w.name == name)
    program = compile_program_cached(workload.source, workload.name, opt_level)
    inputs = workload.make_inputs(random.Random(f"{SEED_PREFIX}{name}"))
    return program_records(program, inputs, f"{SEED_PREFIX}{cell}:{name}")


def collect() -> dict:
    data: dict = {"seed_prefix": SEED_PREFIX, "cells": {}}
    for cell, name in cell_names():
        data["cells"].setdefault(cell, {})[name] = cell_records(cell, name)
    return data


def dump(value, indent: int = 0) -> str:
    """JSON with one line per run record, so diffs stay readable."""
    if isinstance(value, dict) and any(isinstance(v, dict) for v in value.values()):
        pad = " " * (indent + 1)
        items = [
            f"{pad}{json.dumps(key)}: {dump(value[key], indent + 1)}"
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    return json.dumps(value, sort_keys=True)


def main() -> None:
    GOLDEN_PATH.write_text(dump(collect()) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
