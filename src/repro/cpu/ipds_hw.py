"""Timing model of the IPDS hardware (§5.4, §6).

The functional checker (:mod:`repro.runtime`) decides *what* is
detected; this model decides *when*: request queueing, table-access
cycles, BAT link-list walks, and the spilling of BSV/BCV/BAT stack
frames when the active call chain outgrows the on-chip buffers
(2K/1K/32K bits in Table 1).

The paper's key scheduling property is preserved: requests are
processed in order by a dedicated engine, and the pipeline only stalls
when the bounded request queue is full at commit time — otherwise
checking proceeds entirely off the critical path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..correlation.encoding import table_sizes
from ..correlation.tables import ProgramTables
from .params import IPDSHardwareParams


@dataclass
class IPDSTimingStats:
    """Counters from one timed execution."""

    requests: int = 0
    checks: int = 0
    commit_stalls: int = 0
    stall_cycles: int = 0
    spill_events: int = 0
    spill_cycles: int = 0
    total_check_latency: int = 0
    max_queue_depth: int = 0
    context_switches: int = 0
    context_switch_stall_cycles: int = 0

    @property
    def avg_check_latency(self) -> float:
        """Mean cycles from request enqueue to verdict (§6: 11.7)."""
        return self.total_check_latency / self.checks if self.checks else 0.0


@dataclass
class _Frame:
    bsv_bits: int
    bcv_bits: int
    bat_bits: int
    spilled: bool = False

    @property
    def total_bits(self) -> int:
        return self.bsv_bits + self.bcv_bits + self.bat_bits


class IPDSHardwareModel:
    """Cycle accounting for the IPDS engine."""

    def __init__(
        self,
        tables: ProgramTables,
        params: IPDSHardwareParams = IPDSHardwareParams(),
    ):
        self._params = params
        self._tables = tables
        self._sizes: Dict[str, Tuple[int, int, int]] = {}
        for fn_tables in tables:
            sizes = table_sizes(fn_tables)
            self._sizes[fn_tables.function_name] = (
                sizes.bsv_bits,
                sizes.bcv_bits,
                sizes.bat_bits,
            )
        #: (function, pc, taken) -> ``_branch_cost``: fixed per key.
        self._costs: Dict[Tuple[str, int, bool], tuple] = {}
        self._stack: List[_Frame] = []
        self._onchip = [0, 0, 0]  # bsv, bcv, bat bits resident
        self._capacities = (
            params.bsv_stack_bits, params.bcv_stack_bits, params.bat_stack_bits
        )
        self._engine_free = 0
        self._pending: Deque[int] = deque()  # finish times, FIFO
        self._next_switch = (
            params.context_switch_interval
            if params.context_switch_interval > 0
            else None
        )
        self.stats = IPDSTimingStats()

    # -- helpers ----------------------------------------------------------

    def _spill_fill_cost(self, bits: int) -> int:
        words = (bits + 63) // 64
        return words * self._params.spill_word_latency

    def _engine_work(
        self, at_cycle: int, occupancy: int, latency: Optional[int] = None
    ) -> Tuple[int, int]:
        """Schedule one engine request issued at ``at_cycle``.

        The engine is pipelined: ``occupancy`` is how long the request
        holds the issue stage (normally one cycle; more when a long BAT
        walk monopolizes the BAT port), ``latency`` is when its verdict
        is available.  Returns ``(stall_until, finish)``; the request
        occupies a queue slot until ``finish``, and when the queue is
        full the requester (commit) waits for the oldest pending
        request.
        """
        if latency is None:
            latency = occupancy
        while self._pending and self._pending[0] <= at_cycle:
            self._pending.popleft()
        stall_until = at_cycle
        while len(self._pending) >= self._params.request_queue_size:
            stall_until = self._pending.popleft()
        start = max(self._engine_free, stall_until)
        finish = start + latency
        if self._pending:
            finish = max(finish, self._pending[-1])  # verdicts in order
        self._engine_free = start + occupancy
        self._pending.append(finish)
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, len(self._pending)
        )
        return stall_until, finish

    def maybe_context_switch(self, cycle: int) -> int:
        """Model a context switch when the interval elapses (§5.4).

        Returns the cycles the *program* must wait before resuming.
        Under the eager scheme the whole live table state (both the
        outgoing and incoming process's, modeled symmetrically) is
        swapped before execution resumes; under the paper's lazy scheme
        only ~1K bits swap up-front and the remainder moves in the
        background (engine work that may delay later verdicts).
        """
        if self._next_switch is None or cycle < self._next_switch:
            return 0
        self._next_switch += self._params.context_switch_interval
        self.stats.context_switches += 1
        live_bits = sum(frame.total_bits for frame in self._stack if not frame.spilled)
        total_swap = 2 * live_bits  # save ours + restore theirs
        if self._params.lazy_context_switch:
            eager_bits = min(total_swap, self._params.context_switch_eager_bits)
            background_bits = total_swap - eager_bits
        else:
            eager_bits = total_swap
            background_bits = 0
        stall = self._spill_fill_cost(eager_bits)
        if background_bits:
            self._engine_work(cycle, self._spill_fill_cost(background_bits))
        self.stats.context_switch_stall_cycles += stall
        return stall

    # -- event interface ------------------------------------------------------

    def on_call(self, function_name: str, cycle: int) -> None:
        """Push a frame, spilling the deepest frames that no longer fit
        (the spill occupies the engine, not the commit stage)."""
        bsv, bcv, bat = self._sizes.get(function_name, (0, 0, 0))
        frame = _Frame(bsv, bcv, bat)
        self._stack.append(frame)
        for i, bits in enumerate((bsv, bcv, bat)):
            self._onchip[i] += bits
        spill_bits = 0
        capacities = self._capacities
        if any(used > cap for used, cap in zip(self._onchip, capacities)):
            # Spill the deepest unspilled frames (below the top) until
            # everything fits; the active frame always stays on chip.
            for victim in self._stack[:-1]:
                if victim.spilled:
                    continue
                victim.spilled = True
                spill_bits += victim.total_bits
                self._onchip[0] -= victim.bsv_bits
                self._onchip[1] -= victim.bcv_bits
                self._onchip[2] -= victim.bat_bits
                if all(
                    used <= cap for used, cap in zip(self._onchip, capacities)
                ):
                    break
        if spill_bits:
            cost = self._spill_fill_cost(spill_bits)
            self.stats.spill_events += 1
            self.stats.spill_cycles += cost
            self._engine_work(cycle, cost)

    def on_return(self, cycle: int) -> None:
        """Pop a frame; fill the caller's frame if it was spilled."""
        if not self._stack:
            return
        frame = self._stack.pop()
        if not frame.spilled:
            self._onchip[0] -= frame.bsv_bits
            self._onchip[1] -= frame.bcv_bits
            self._onchip[2] -= frame.bat_bits
        if self._stack and self._stack[-1].spilled:
            caller = self._stack[-1]
            caller.spilled = False
            self._onchip[0] += caller.bsv_bits
            self._onchip[1] += caller.bcv_bits
            self._onchip[2] += caller.bat_bits
            cost = self._spill_fill_cost(caller.total_bits)
            self.stats.spill_events += 1
            self.stats.spill_cycles += cost
            self._engine_work(cycle, cost)

    def _branch_cost(self, function_name: str, pc: int, taken: bool) -> tuple:
        """``(checked, occupancy, latency)`` of one branch request, or
        ``()`` when the function has no tables (no request at all)."""
        try:
            tables = self._tables.tables_for(function_name)
        except KeyError:
            return ()
        access = self._params.table_access_latency
        actions = tables.actions_for(pc, taken)
        # BCV, BSV and the BAT head are separate SRAMs read in parallel
        # in the request's first cycle; linked-list entries beyond the
        # first batch add BAT-port cycles (several entries per access —
        # they are ~20 bits wide).  Occupancy = BAT-port cycles;
        # verdict latency adds the fixed two-stage lookup/compare.
        per = max(1, self._params.bat_entries_per_access)
        batches = (len(actions) + per - 1) // per if actions else 0
        occupancy = access * max(1, batches)
        return tables.is_checked(pc), occupancy, occupancy + 2 * access

    def on_branch(
        self, function_name: str, pc: int, taken: bool, cycle: int
    ) -> int:
        """A committed conditional branch; returns commit stall cycles."""
        key = (function_name, pc, taken)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = self._branch_cost(function_name, pc, taken)
        if not cost:
            return 0
        checked, occupancy, latency = cost
        stats = self.stats
        stats.requests += 1
        stall_until, finish = self._engine_work(cycle, occupancy, latency)
        if checked:
            stats.checks += 1
            stats.total_check_latency += finish - cycle
        if stall_until > cycle:
            stats.commit_stalls += 1
            stats.stall_cycles += stall_until - cycle
            return stall_until - cycle
        return 0
