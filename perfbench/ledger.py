"""Outside-in layer ledger: timing wrappers installed by the benchmark.

The traced run replaces the module and class attributes that each
layer's callers look up (``bat_builder.analyze_feasible``,
``campaign.monitored_run``, ``TimingModel.on_instructions``, ...) with
wrappers that open a span around the call.  Nothing under ``src/`` is
edited: the wrappers are installed for a traced section and removed
afterwards, so the untraced sections run the program exactly as users do.

A span's *self time* is its duration minus the time of the spans nested
inside it.  Self times are summed per ledger key; time inside a traced
section that no span covers is ``trace.unattributed_s``.  Because self
times telescope, the keys plus ``unattributed`` equal the traced wall
time by construction; the runner checks it on every traced run.

Spans of coarse wrappers are kept in memory (one id per benchmark
operation) and written out by :meth:`Ledger.dump`; hot per-event hooks
only accumulate, so a fig9 run does not hold a million span records.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Ledger:
    """Self-time and counter accumulator for one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (operation id, key, start, end, depth) of every coarse span.
        self.spans: List[Tuple[str, str, float, float, int]] = []
        #: The benchmark operation now running, ``<round>:<program>``.
        self.op = ""
        self.wall_s = 0.0
        self.covered_s = 0.0
        self.missing: List[str] = []
        self._stack: List[List[float]] = []
        self._installed: List[Tuple[object, str, object]] = []
        self._section_start: Optional[float] = None

    # -- spans ------------------------------------------------------------

    def _close(self, key: str, start: float, child: List[float], keep: bool) -> None:
        end = _clock()
        self._stack.pop()
        duration = end - start
        self.self_s[key] += duration - child[0]
        if self._stack:
            self._stack[-1][0] += duration
        else:
            self.covered_s += duration
        if keep:
            self.spans.append((self.op, key, start, end, len(self._stack)))

    def timed(
        self,
        key: str,
        fn: Callable,
        hot: bool = False,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span charged to ``key``.

        ``after(result, args, kwargs)`` runs outside the span, for
        counters read off the result.
        """
        stack = self._stack
        close = self._close
        keep = not hot

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(key, start, child, keep)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def start_operation(self, op: str) -> None:
        """Tag the spans that follow with benchmark operation ``op``."""
        self.op = op

    # -- installation -----------------------------------------------------

    def install(
        self,
        owner: object,
        attr: str,
        key: str,
        hot: bool = False,
        after: Optional[Callable] = None,
    ) -> None:
        """Wrap ``owner.attr``; a renamed target is recorded as missing."""
        original = (
            owner.__dict__.get(attr)
            if isinstance(owner, type)
            else getattr(owner, attr, None)
        )
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if original is None or not callable(original):
            if label not in self.missing:
                self.missing.append(label)
            return
        self.replace(owner, attr, self.timed(key, original, hot, after))

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- traced sections --------------------------------------------------

    def begin(self) -> None:
        self._section_start = _clock()

    def end(self) -> None:
        """Close a traced section and add it to the traced wall time."""
        assert self._section_start is not None and not self._stack
        self.wall_s += _clock() - self._section_start
        self._section_start = None

    @property
    def unattributed_s(self) -> float:
        return self.wall_s - self.covered_s

    def dump(self, path: str, extra: dict) -> None:
        payload = {
            "wall_s": self.wall_s,
            "unattributed_s": self.unattributed_s,
            "self_s": dict(sorted(self.self_s.items())),
            "counts": dict(sorted(self.counts.items())),
            "missing": self.missing,
            "spans": [
                {"op": op, "key": key, "start": start, "end": end, "depth": depth}
                for op, key, start, end, depth in self.spans
            ],
            **extra,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
