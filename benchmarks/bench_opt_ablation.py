"""§6 ablation: the effect of compiler optimization on detection.

The paper notes: "Noticeably, compiler optimizations can remove some
correlations, reducing the detection rate."  This ablation compiles
every workload twice — unoptimized and with the standard pipeline
(constant propagation, store-to-load forwarding, DSE, DCE) — and
compares the number of checked branches and the campaign detection
rate.  A third column compiles at ``--opt 3`` and checks the opposite
lever: the feasible-path analysis only ever *adds* SET entries over
``--opt 2``, so its detection rate can never drop below it.
"""

import os

import pytest

from repro.attacks import CampaignConfig, run_workload_campaign
from repro.pipeline import compile_program
from repro.workloads import all_workloads, workload_names

ATTACKS = int(os.environ.get("REPRO_FIG7_ATTACKS", "30"))

_CHECKED = {}
_DETECTED = {}
_SETS = {}


def _set_entries(program):
    return sum(s.set_entries for s in program.build_stats)


@pytest.mark.parametrize("name", workload_names())
def test_opt_ablation_per_workload(benchmark, name):
    workload = next(w for w in all_workloads() if w.name == name)

    def compile_all():
        plain = compile_program(workload.source, name)
        opt = compile_program(workload.source, name, opt_level=1)
        opt2 = compile_program(workload.source, name, opt_level=2)
        opt3 = compile_program(workload.source, name, opt_level=3)
        return plain, opt, opt2, opt3

    plain, opt, opt2, opt3 = benchmark.pedantic(
        compile_all, rounds=1, iterations=1
    )
    _CHECKED[name] = (plain.tables.total_checked, opt.tables.total_checked)
    # Optimization never *adds* checkable branches here (forwarding only
    # removes loads) — it can only preserve or remove correlations.
    assert opt.tables.total_checked <= plain.tables.total_checked
    # The feasible-path pass works the other lever: same checked
    # branches, strictly more proved actions.
    _SETS[name] = (_set_entries(opt2), _set_entries(opt3))
    assert _set_entries(opt3) >= _set_entries(opt2)
    benchmark.extra_info["checked_plain"] = plain.tables.total_checked
    benchmark.extra_info["checked_opt"] = opt.tables.total_checked
    benchmark.extra_info["sets_opt2"] = _set_entries(opt2)
    benchmark.extra_info["sets_opt3"] = _set_entries(opt3)

    # The campaigns attack the compile cache's build at each level
    # (compiled here, outside the timed section above).
    plain_result, opt_result, opt2_result, opt3_result = (
        run_workload_campaign(
            workload, attacks=ATTACKS, config=CampaignConfig(opt_level=level)
        )
        for level in range(4)
    )
    _DETECTED[name] = (
        plain_result.pct_detected,
        opt_result.pct_detected,
        opt3_result.pct_detected,
    )
    # More proved actions can only add alarms on the same seeds.
    assert opt3_result.pct_detected >= opt2_result.pct_detected


def test_opt_ablation_summary(benchmark):
    if len(_CHECKED) < len(workload_names()):
        pytest.skip("per-workload ablations did not run")
    summary = benchmark.pedantic(
        lambda: (dict(_CHECKED), dict(_DETECTED)), rounds=1, iterations=1
    )
    checked, detected = summary
    print()
    print(
        f"{'workload':10s} {'checked':>14s} {'sets 2->3':>14s}"
        f" {'detected %':>22s}"
    )
    for name in workload_names():
        cp, co = checked[name]
        s2, s3 = _SETS[name]
        dp, do, d3 = detected[name]
        print(
            f"{name:10s} {cp:6d} -> {co:4d} {s2:6d} -> {s3:4d}"
            f" {dp:9.1f} -> {do:5.1f} -> {d3:5.1f}"
        )
    total_plain = sum(c[0] for c in checked.values())
    total_opt = sum(c[1] for c in checked.values())
    print(f"checked branches: {total_plain} -> {total_opt}")
    # The paper's observation, in aggregate.
    assert total_opt <= total_plain
    # The opt-3 counterpoint, in aggregate: feasible-path analysis
    # recovers proofs (more SET entries) instead of removing them.
    assert sum(s[1] for s in _SETS.values()) > sum(
        s[0] for s in _SETS.values()
    )
    avg_plain = sum(d[0] for d in detected.values()) / len(detected)
    avg_opt = sum(d[1] for d in detected.values()) / len(detected)
    avg_opt3 = sum(d[2] for d in detected.values()) / len(detected)
    print(
        f"avg detection: {avg_plain:.1f}% -> {avg_opt:.1f}%"
        f" -> {avg_opt3:.1f}% (opt 3)"
    )
    # Detection must not *improve* materially under optimization.
    assert avg_opt <= avg_plain + 3.0
