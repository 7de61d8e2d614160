"""Zero-false-positive regression: the paper's headline invariant.

Every registered workload, run clean under IPDS monitoring, must raise
no alarms — at opt levels 0, 1, 2 and 3.  Each clean session is a
:func:`repro.attacks.campaign.clean_run`, the one definition of a clean
run, which raises :class:`CampaignError` on the first alarm.  Every
campaign attack's clean step is the same call, so a campaign over the
whole registry, serial and sharded across two worker processes, is a
clean-run sweep too.
"""

import functools

import pytest

from repro.attacks import CampaignConfig, CampaignError, attack_rng, clean_run
from repro.parallel import engine, run_campaign
from repro.pipeline import compile_program_cached
from repro.workloads import get_workload, workload_names

from .test_attack_recipe import swapped

SESSIONS = 3
OPT_LEVELS = pytest.mark.parametrize(
    "opt_level", [0, 1, 2, 3], ids=["opt0", "opt1", "opt2", "opt3"]
)


@OPT_LEVELS
@pytest.mark.parametrize("name", workload_names())
def test_clean_runs_never_alarm(name, opt_level):
    workload = get_workload(name)
    program = compile_program_cached(workload.source, workload.name, opt_level)
    for session in range(SESSIONS):
        clean_run(program, workload.make_inputs(attack_rng("zfp:", name, session)))


@OPT_LEVELS
@pytest.mark.parametrize("name", workload_names())
def test_every_function_has_tables(name, opt_level):
    """The IPDS raises on a call into a function without tables; the
    compiler builds tables for every function, so no run reaches that."""
    workload = get_workload(name)
    program = compile_program_cached(workload.source, workload.name, opt_level)
    assert set(program.tables.by_function) == {
        fn.name for fn in program.module.functions
    }


@functools.lru_cache(maxsize=None)
def serial_campaign(opt_level):
    return run_campaign(attacks=2, config=CampaignConfig(opt_level=opt_level))


@OPT_LEVELS
def test_clean_sweep_serial(opt_level):
    summary = serial_campaign(opt_level)
    assert [result.workload for result in summary.results] == workload_names()
    assert all(result.total == 2 for result in summary.results)


@OPT_LEVELS
def test_clean_sweep_sharded(opt_level):
    """The same invariant holds through the process pool, and the
    sharded campaign equals the serial one."""
    config = CampaignConfig(opt_level=opt_level)
    assert run_campaign(attacks=2, config=config, jobs=2) == serial_campaign(
        opt_level
    )


def test_clean_sweep_raises_on_alarm(monkeypatch):
    """A single alarm anywhere must abort the sweep loudly."""
    real = engine.cached_compile

    def poisoned(source, name, opt_level):
        program = real(source, name, opt_level)
        return swapped(program) if name == "httpd" else program

    monkeypatch.setattr(engine, "cached_compile", poisoned)
    with pytest.raises(CampaignError, match="false positive on clean run of httpd"):
        run_campaign(["telnetd", "httpd"], attacks=1)
