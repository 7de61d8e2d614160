#!/usr/bin/env python
"""CI validator for the static detectability prover.

Runs the seeded Figure-7 campaign across the workload registry at the
requested optimization levels, joins every attack against the prover's
verdict at its exact tamper point
(:mod:`repro.staticcheck.detectvalidate`), and fails on any soundness
violation:

* a ``DET801`` (proven detected) attack the IPDS did not catch, or
* a ``DET803`` (proven undetected) attack that raised an alarm.

DET801 assumes the attacked run makes progress.  Under each workload
line the tool lists the DET801 attacks whose attacked run hit the step
or call-depth limit ("progress not met"); this is reporting only, and
such an attack that escaped is still a violation.

Also prints the static detection-rate lower bound next to the measured
detected-of-changed rate per opt level — the bound must never exceed
the measurement (that too is asserted).

Exit codes follow the audit convention: 0 sound, 1 soundness
violations, 2 tool error.  ``--json PATH`` writes the full joined
report ('-' for stdout).
"""

import argparse
import json
import sys
import time

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_TOOL_ERROR = 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--attacks", type=int, default=30,
                        help="seeded attacks per workload (default 30, "
                             "matching the Figure-7 benchmark)")
    parser.add_argument("--opt-levels", default="0,1,2,3",
                        help="comma-separated opt levels (default 0,1,2,3)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="shard each campaign across N processes")
    parser.add_argument("--seed-prefix", default="",
                        help="campaign seed prefix (default: bench seeds)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the joined report as JSON ('-' = stdout)")
    args = parser.parse_args(argv)

    try:
        opt_levels = tuple(
            int(level) for level in args.opt_levels.split(",") if level
        )
    except ValueError:
        print(f"error: bad --opt-levels {args.opt_levels!r}", file=sys.stderr)
        return EXIT_TOOL_ERROR
    # Checked before any campaign runs: a count below 1 joins nothing
    # and would declare soundness vacuously.
    for ok, message in (
        (args.attacks >= 1, f"--attacks must be >= 1, got {args.attacks}"),
        (args.jobs >= 1, f"--jobs must be >= 1, got {args.jobs}"),
        (
            opt_levels and all(0 <= level <= 3 for level in opt_levels),
            f"--opt-levels must each be 0-3, got {args.opt_levels!r}",
        ),
    ):
        if not ok:
            print(f"error: {message}", file=sys.stderr)
            return EXIT_TOOL_ERROR

    from repro.lang.errors import ReproError
    from repro.staticcheck.detectvalidate import validate_registry

    names = args.workloads.split(",") if args.workloads else None
    started = time.perf_counter()
    try:
        report = validate_registry(
            opt_levels=opt_levels,
            attacks=args.attacks,
            seed_prefix=args.seed_prefix,
            jobs=args.jobs,
            names=names,
        )
    except (ReproError, KeyError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_TOOL_ERROR
    elapsed = time.perf_counter() - started

    failures = []
    for result in report.results:
        line = (
            f"{result.workload:<10} opt{result.opt_level}: "
            f"{result.total} attacks, {result.changed} changed, "
            f"{result.detected} detected | "
            f"DET801={result.count('DET801')} "
            f"DET802={result.count('DET802')} "
            f"DET803={result.count('DET803')} "
            f"unjoined={result.count('unjoined')} "
            f"progress-not-met={len(result.det801_progress_not_met)} | "
            f"bound {result.predicted_lower_bound_pct:.1f}% <= "
            f"measured {result.measured_pct_detected_of_changed:.1f}%"
        )
        print(line)
        for join in result.det801_progress_not_met:
            print(
                f"  progress not met: attack {join.index} (DET801, "
                f"{join.target_label} = {join.value}) stopped at "
                f"{join.attack_status.value}, "
                f"{'detected' if join.detected else 'not detected'}"
            )
        for join in result.det801_escapes:
            failures.append(
                f"{result.workload} opt{result.opt_level} attack "
                f"{join.index}: DET801 (proven detected) but the IPDS "
                f"raised no alarm ({join.target_label} = {join.value})"
            )
        for join in result.det803_alarms:
            failures.append(
                f"{result.workload} opt{result.opt_level} attack "
                f"{join.index}: DET803 (proven undetected) but the IPDS "
                f"alarmed ({join.target_label} = {join.value})"
            )
        if (
            result.predicted_lower_bound_pct
            > result.measured_pct_detected_of_changed + 1e-9
        ):
            failures.append(
                f"{result.workload} opt{result.opt_level}: static lower "
                f"bound {result.predicted_lower_bound_pct:.3f}% exceeds "
                f"measured {result.measured_pct_detected_of_changed:.3f}%"
            )

    for level in opt_levels:
        print(
            f"aggregate opt{level}: predicted lower bound "
            f"{report.avg_predicted_lower_bound_pct(level):.3f}% "
            f"(avg of per-workload bounds)"
        )
    print(
        f"{len(report.results)} campaign(s), "
        f"{sum(r.total for r in report.results)} attacks joined "
        f"in {elapsed:.1f}s"
    )

    if args.json:
        document = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(document)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
            print(f"wrote {args.json}")

    if failures:
        for failure in failures:
            print(f"UNSOUND: {failure}", file=sys.stderr)
        return EXIT_INVALID
    print("soundness: every DET801 attack alarmed, every DET803 stayed "
          "silent")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
