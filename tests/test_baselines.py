"""Tests for the n-gram baseline detector and the comparison harness."""

import pytest

from repro.attacks.campaign import CampaignError, clean_run, run_attack
from repro.baselines import NGramDetector, SyscallTraceObserver, compare_detectors
from repro.pipeline import compile_program
from repro.workloads import get_workload

from .test_attack_recipe import swapped


# ----------------------------------------------------------------------
# NGramDetector
# ----------------------------------------------------------------------


def test_untrained_detector_flags_everything():
    detector = NGramDetector(n=3)
    assert detector.detects(["a", "b", "c"])


def test_trained_trace_is_clean():
    detector = NGramDetector(n=3)
    detector.train(["a", "b", "c", "d"])
    assert not detector.detects(["a", "b", "c", "d"])
    assert detector.mismatches(["a", "b", "c", "d"]) == 0


def test_novel_subsequence_detected():
    detector = NGramDetector(n=3)
    detector.train(["open", "read", "write", "close"])
    assert detector.detects(["open", "write", "read", "close"])


def test_prefix_windows_padded():
    detector = NGramDetector(n=4)
    detector.train(["a", "b"])
    # A different start is a different padded window.
    assert detector.detects(["b", "a"])
    assert not detector.detects(["a", "b"])


def test_mismatch_count_scales():
    detector = NGramDetector(n=2)
    detector.train(["a", "a", "a", "a"])
    assert detector.mismatches(["a", "b", "a", "b"]) >= 2


def test_empty_trace_never_flags():
    detector = NGramDetector(n=5)
    assert not detector.detects([])


def test_training_accumulates():
    detector = NGramDetector(n=2)
    detector.train(["a", "b"])
    detector.train(["b", "a"])
    assert detector.trained_traces == 2
    assert not detector.detects(["a", "b"])
    assert not detector.detects(["b", "a"])
    assert detector.profile_size > 0


# ----------------------------------------------------------------------
# Trace capture
# ----------------------------------------------------------------------


def test_capture_trace_symbols_are_call_sites():
    program = compile_program(
        "void main() { emit(read_int()); emit(2); }"
    )
    syscalls = SyscallTraceObserver()
    clean_run(program, [7], observers=(syscalls,))
    trace = syscalls.symbols
    assert len(trace) == 3
    assert trace[0].startswith("read_int@")
    assert trace[1].startswith("emit@")
    # Two emit call sites are distinct symbols.
    assert trace[1] != trace[2]


def test_capture_trace_reports_ipds_detection():
    """The capture rides the attack recipe's runs without changing
    what the IPDS sees: the clean run raises nothing, the tampered run
    is detected, and both runs' calls are captured."""
    from repro import TamperSpec
    from repro.attacks.campaign import execute_attack
    from repro.interp import MemoryMap

    source = """
    int user;
    void main() {
      user = read_int();
      if (user == 0) { emit(1); } else { emit(2); }
      int x = read_int();
      if (user == 0) { emit(3); } else { emit(4); }
    }
    """
    program = compile_program(source)
    address = MemoryMap(program.module).global_addresses[
        program.module.globals[0]
    ]
    clean = SyscallTraceObserver()
    clean_run(program, [5, 1], observers=(clean,))
    attacked = SyscallTraceObserver()
    execution = execute_attack(
        program,
        [5, 1],
        TamperSpec("read", 2, address, 0),
        extra_observers=(attacked,),
    )
    assert execution.outcome.detected
    assert len(clean.symbols) == len(attacked.symbols) == 4
    assert clean.symbols[-1] != attacked.symbols[-1]


# ----------------------------------------------------------------------
# The comparison harness
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["httpd"])
def test_compare_detectors_end_to_end(name):
    workload = get_workload(name)
    result = compare_detectors(
        workload, attacks=15, train_sessions=15, test_sessions=10
    )
    assert result.workload == name
    assert result.profile_size > 0
    assert 0 <= result.ngram_false_positives <= result.clean_sessions_tested
    assert result.ipds_detected <= result.changed
    assert result.ngram_detected <= result.changed
    # Rates are well-defined.
    assert 0.0 <= result.ngram_fp_rate <= 100.0


def test_comparison_deterministic():
    workload = get_workload("sysklogd")
    program = compile_program(workload.source, workload.name)
    a = compare_detectors(
        workload, attacks=8, train_sessions=8, test_sessions=8, program=program
    )
    b = compare_detectors(
        workload, attacks=8, train_sessions=8, test_sessions=8, program=program
    )
    assert a == b


@pytest.fixture(scope="module")
def swapped_telnetd():
    telnetd = get_workload("telnetd")
    return telnetd, swapped(compile_program(telnetd.source, telnetd.name))


def test_clean_session_alarm_raises_campaign_error(swapped_telnetd):
    """The zero-FP check is a raise, not an ``assert`` that ``python
    -O`` would strip: an alarm on a clean test session aborts."""
    workload, program = swapped_telnetd
    with pytest.raises(CampaignError, match="false positive on clean run of telnetd"):
        compare_detectors(
            workload, attacks=0, train_sessions=0, test_sessions=1, program=program
        )


def test_training_session_alarm_raises_campaign_error(swapped_telnetd):
    """The n-gram profile is trained only on runs the IPDS checked
    clean: an alarm on a training session aborts too."""
    workload, program = swapped_telnetd
    with pytest.raises(CampaignError, match="false positive on clean run of telnetd"):
        compare_detectors(
            workload, attacks=0, train_sessions=1, test_sessions=0, program=program
        )


def test_attack_clean_run_alarm_raises_campaign_error(swapped_telnetd):
    workload, program = swapped_telnetd
    with pytest.raises(CampaignError, match="false positive on clean run of telnetd"):
        run_attack(program, workload, 0)
