"""§3 extension: attack model 1 (malicious inputs) vs model 2
(malicious co-resident process).

Model 2 tampers at arbitrary execution points and arbitrary data
addresses — a strictly wider threat than overflow-reachable stack
words.  The IPDS makes no distinction (it only sees branches), so its
conditional detection rate should stay in the same band across models.
"""

import os

import pytest

from repro.attacks import CampaignConfig, run_workload_campaign

ATTACKS = int(os.environ.get("REPRO_FIG7_ATTACKS", "30"))
JOBS = int(os.environ.get("REPRO_FIG7_JOBS", "1"))
WORKLOADS = ["telnetd", "httpd", "sendmail"]

_RESULTS = {}


@pytest.mark.parametrize("model", ["input", "process"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_attack_model(benchmark, compiled_workloads, name, model):
    workload, _ = compiled_workloads[name]

    def campaign():
        # Compiles resolve through the content-addressed cache (warmed
        # by the session fixture); REPRO_FIG7_JOBS>1 shards the attacks.
        return run_workload_campaign(
            workload,
            attacks=ATTACKS,
            config=CampaignConfig(attack_model=model),
            jobs=JOBS,
        )

    result = benchmark.pedantic(campaign, rounds=1, iterations=1)
    _RESULTS[(name, model)] = result
    assert result.detected <= result.changed
    benchmark.extra_info["pct_detected_of_changed"] = (
        result.pct_detected_of_changed
    )


def test_models_summary(benchmark):
    if len(_RESULTS) < 2 * len(WORKLOADS):
        pytest.skip("model benches did not run")
    results = benchmark.pedantic(
        lambda: dict(_RESULTS), rounds=1, iterations=1
    )
    print()
    print(f"{'workload':10s} {'model':8s} {'changed':>8s} {'det/chg':>8s}")
    for (name, model), result in sorted(results.items()):
        print(
            f"{name:10s} {model:8s} {result.pct_changed:7.1f}% "
            f"{result.pct_detected_of_changed:7.1f}%"
        )
    # Both models produce detections somewhere.
    for model in ("input", "process"):
        total_detected = sum(
            results[(n, model)].detected for n in WORKLOADS
        )
        assert total_detected > 0, model
