"""Explore branch correlations the compiler finds in your code.

Run:  python examples/correlation_explorer.py

Walks the paper's Figure 3.a example end to end: shows the lowered IR,
the per-branch facts (check predicates and implied ranges), and the
final BAT action lists — then replays a short execution and prints each
branch event with the BSV status it was verified against.
"""

from repro.analysis import analyze_branches, analyze_definitions, analyze_purity, analyze_aliases
from repro.ir import format_function, lower_program
from repro.lang import parse_program
from repro.pipeline import compile_program, observed_run
from repro.runtime import IPDS, ExecutionObserver

SOURCE = """
int x;
int y;
void main() {
  x = read_int();
  y = read_int();
  while (read_int()) {
    if (y < 5) { emit(1); }            // BR1
    if (x > 10) { x = read_int(); }    // BR2 (BB3 redefines x)
    else { y = read_int(); }           // BB4 redefines y
    if (y < 10) { emit(2); }           // BR5
  }
}
"""


def main() -> None:
    module = lower_program(parse_program(SOURCE, "fig3a.c"))
    print("=== lowered IR ===")
    print(format_function(module.function("main"), show_addresses=True))

    analyze_aliases(module)
    purity = analyze_purity(module)
    fn = module.function("main")
    def_map, _ = analyze_definitions(fn, module, purity)
    print("\n=== branch facts ===")
    for pc, facts in sorted(analyze_branches(fn, def_map).items()):
        check = facts.check
        if check:
            print(
                f"{pc:#x} [{facts.block_label}]: checkable on {check.var.name} "
                f"({check.var.name} {check.op.value} {check.bound}); "
                f"taken-set {check.taken_set}"
            )
        for inf in facts.inferences:
            print(
                f"        inference via {inf.kind}: direction reveals "
                f"{inf.var.name} {inf.op.value} {inf.bound}"
            )

    program = compile_program(SOURCE, "fig3a.c")
    tables = program.tables.tables_for("main")
    print("\n=== compiled tables ===")
    print(tables.describe())

    print("\n=== monitored replay ===")
    ipds = IPDS(program.tables)

    class Narrator(ExecutionObserver):
        """Prints each branch with the status the IPDS, next on the
        bus, is about to verify it against."""

        def on_branch(self, event):
            frame = ipds.current_frame()
            slot = frame.tables.slot_of(event.pc) if frame else None
            status = frame.status(slot).value if slot is not None else "-"
            checked = frame.tables.is_checked(event.pc) if frame else False
            mark = "CHECKED" if checked else "       "
            print(
                f"  branch {event.pc:#x} {event.direction:>2s} "
                f"{mark} expected={status}"
            )

    observed_run(
        program,
        observers=[Narrator(), ipds],
        inputs=[3, 2, 1, 7, 1, 20, 1, 4, 0],
    )
    print(f"\nalarms: {ipds.alarms or 'none (clean run)'}")


if __name__ == "__main__":
    main()
