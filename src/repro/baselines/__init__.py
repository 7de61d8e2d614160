"""Baseline detectors for comparison (related-work §7)."""

from .compare import (
    ComparisonResult,
    SyscallTraceObserver,
    compare_detectors,
)
from .ngram import NGramDetector, PAD

__all__ = [
    "ComparisonResult",
    "NGramDetector",
    "PAD",
    "SyscallTraceObserver",
    "compare_detectors",
]
