"""Tests for the n-gram baseline detector and the comparison harness."""

import pytest

from repro.baselines import NGramDetector, capture_trace, compare_detectors
from repro.pipeline import compile_program
from repro.workloads import get_workload


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
    trace, branches, detected = capture_trace(program, inputs=[7])
    assert len(trace) == 3
    assert trace[0].startswith("read_int@")
    assert trace[1].startswith("emit@")
    # Two emit call sites are distinct symbols.
    assert trace[1] != trace[2]
    assert not detected


def test_capture_trace_reports_ipds_detection():
    from repro import TamperSpec
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
    _, _, clean_detected = capture_trace(program, inputs=[5, 1])
    assert not clean_detected
    _, _, detected = capture_trace(
        program, inputs=[5, 1], tamper=TamperSpec("read", 2, address, 0)
    )
    assert detected


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


def test_clean_session_alarm_raises_campaign_error(monkeypatch):
    """The zero-FP check is a raise, not an ``assert`` that ``python
    -O`` would strip: an alarm on a clean test session aborts."""
    from repro.attacks import CampaignError
    from repro.baselines import compare

    real_capture = compare.capture_trace

    def alarming_on_clean(program, inputs, tamper=None, step_limit=500_000):
        symbols, branches, _ = real_capture(
            program, inputs, tamper=tamper, step_limit=step_limit
        )
        return symbols, branches, tamper is None

    monkeypatch.setattr(compare, "capture_trace", alarming_on_clean)
    workload = get_workload("telnetd")
    with pytest.raises(CampaignError, match="false positive on clean session 0"):
        compare_detectors(workload, attacks=1, train_sessions=2, test_sessions=2)
