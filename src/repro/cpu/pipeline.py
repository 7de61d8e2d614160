"""Trace-driven superscalar timing model (the SimpleScalar stand-in).

The model consumes the interpreter's committed instruction stream and
assigns each instruction fetch / issue / complete / commit cycles under
the Table 1 constraints:

* fetch bandwidth limited by the decode width and the I-cache, with
  redirect bubbles after branch mispredictions (2-level predictor);
* issue limited by register dependencies (true dependencies only —
  registers are single-assignment), the RUU window, and the LSQ for
  memory operations;
* loads/stores pay the memory-hierarchy latency (L1D → L2 → DRAM, plus
  TLB misses);
* in-order commit limited by the commit width; committed conditional
  branches are handed to the IPDS hardware model, whose only influence
  on the core is a commit stall when its request queue is full (§5.4).

It is *trace-driven*, so wrong-path instructions are modeled as a fixed
redirect penalty rather than simulated — the standard fidelity
trade-off for this class of model.  Figure 9 reports a ratio of two
configurations (IPDS / baseline), which this preserves.

One model, one or two cycle lanes.  The caches see only committed
addresses and gshare only committed (pc, outcome) pairs; the IPDS
hardware's spills pay a fixed latency and never touch the caches.  So
the baseline and IPDS configurations of one execution compute the same
hits, misses and predictions, and ``baseline_lane=True`` times both
over one :class:`MemoryHierarchy` and one :class:`TwoLevelPredictor`.
Per batch a shared front end looks up each instruction's static record,
I-cache latency (on a block change) and data latency once; the one copy
of the cycle arithmetic, :meth:`_Lane.advance`, then runs once per
lane.  A mispredict redirects both lanes; only the IPDS lane consults
the IPDS hardware model and takes its stalls.  Each lane's cycles equal
a one-lane model's (``tests/test_timing_lanes.py``).

Fast-path notes: the RUU window and the LSQ are preallocated rings of
commit cycles (commits are nondecreasing, so ready entries pop from the
head); register readiness keys on the integer register index; the
static record of an instruction is cached by object identity (pinning
the object, so its id is never recycled); and ``on_instructions``
accounts a whole committed batch per call with lane state in locals.
``on_instruction`` accounts one instruction as a batch of one, so it
produces bit-identical cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..ir.instructions import (
    BinOp,
    CondBranch,
    Instruction,
    Load,
    LoadIndirect,
    Store,
    StoreIndirect,
    defined_reg,
    used_regs,
)
from .caches import MemoryHierarchy
from .ipds_hw import IPDSHardwareModel
from .params import ProcessorParams
from .predictor import TwoLevelPredictor

@dataclass
class TimingStats:
    """Results of one timed execution."""

    instructions: int = 0
    cycles: int = 0
    branch_instructions: int = 0
    loads: int = 0
    stores: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class _Lane:
    """The cycle state of one configuration (baseline or IPDS): fetch
    and commit frontiers, register readiness and the RUU/LSQ rings.
    :meth:`advance` is the one copy of the exact cycle arithmetic.
    Commits never move backwards, so ``last_commit`` is the lane's
    cycle count."""

    __slots__ = (
        "_params", "_reg_ready", "_rob", "_rob_head", "_rob_len",
        "_lsq", "_lsq_head", "_lsq_len", "fetch_free", "_fetched",
        "fetch_cycle", "last_commit", "_committed", "commit_cycle",
    )

    def __init__(self, params: ProcessorParams) -> None:
        self._params = params
        #: reg index -> cycle its value is ready.
        self._reg_ready: Dict[int, int] = {}
        self._rob: List[int] = [0] * params.ruu_size
        self._lsq: List[int] = [0] * params.lsq_size
        self._rob_head = self._rob_len = self._lsq_head = self._lsq_len = 0
        self.fetch_free = self._fetched = self.last_commit = self._committed = 0
        self.fetch_cycle = self.commit_cycle = -1

    def advance(self, ops: List[tuple]) -> None:
        """Exact cycles for one batch of front-end records ``(used reg
        indices, dest index or -1, I-cache latency, execution or data
        latency, memflag 0/1/2)``.  All state lives in locals for the
        batch and is written back once."""
        params = self._params
        decode_width, commit_width = params.decode_width, params.commit_width
        ruu_size, lsq_size = params.ruu_size, params.lsq_size
        reg_ready = self._reg_ready
        reg_ready_get = reg_ready.get
        rob, rob_head, rob_len = self._rob, self._rob_head, self._rob_len
        lsq, lsq_head, lsq_len = self._lsq, self._lsq_head, self._lsq_len
        fetch_free, fetched = self.fetch_free, self._fetched
        last_commit, committed = self.last_commit, self._committed
        fetch_cycle, commit_cycle = self.fetch_cycle, self.commit_cycle

        for used, dest, fetch_latency, latency, memflag in ops:
            # Fetch: decode-width slotting plus the I-cache latency the
            # front end charged on a block change.
            cycle = fetch_free
            if cycle != fetch_cycle:
                fetch_cycle = cycle
                fetched = 0
            if fetched >= decode_width:
                cycle += 1
                fetch_cycle = cycle
                fetched = 0
                fetch_free = cycle
            fetched += 1
            cycle += fetch_latency

            # Issue: true register dependencies, then an RUU slot (the
            # oldest in-flight op must commit when the window is full).
            ready = cycle
            for reg in used:
                reg_cycle = reg_ready_get(reg, 0)
                if reg_cycle > ready:
                    ready = reg_cycle
            while rob_len and rob[rob_head] <= ready:
                rob_head += 1
                if rob_head == ruu_size:
                    rob_head = 0
                rob_len -= 1
            if rob_len >= ruu_size:
                ready = rob[rob_head]
                rob_head += 1
                if rob_head == ruu_size:
                    rob_head = 0
                rob_len -= 1

            if memflag:
                # Memory ops additionally wait for an LSQ slot; their
                # latency is the hierarchy's.
                while lsq_len and lsq[lsq_head] <= ready:
                    lsq_head += 1
                    if lsq_head == lsq_size:
                        lsq_head = 0
                    lsq_len -= 1
                if lsq_len >= lsq_size:
                    ready = lsq[lsq_head]
                    lsq_head += 1
                    if lsq_head == lsq_size:
                        lsq_head = 0
                    lsq_len -= 1

            complete = ready + latency
            if dest >= 0:
                reg_ready[dest] = complete

            # In-order commit respecting the commit width.
            cycle = complete if complete > last_commit else last_commit
            if cycle != commit_cycle:
                commit_cycle = cycle
                committed = 0
            if committed >= commit_width:
                cycle += 1
                commit_cycle = cycle
                committed = 0
            committed += 1
            last_commit = cycle

            if memflag:
                tail = lsq_head + lsq_len
                if tail >= lsq_size:
                    tail -= lsq_size
                lsq[tail] = cycle
                lsq_len += 1
            tail = rob_head + rob_len
            if tail >= ruu_size:
                tail -= ruu_size
            rob[tail] = cycle
            rob_len += 1

        self._rob_head, self._rob_len = rob_head, rob_len
        self._lsq_head, self._lsq_len = lsq_head, lsq_len
        self.fetch_free, self._fetched = fetch_free, fetched
        self.last_commit, self._committed = last_commit, committed
        self.fetch_cycle, self.commit_cycle = fetch_cycle, commit_cycle

    def redirect(self, penalty: int) -> None:
        """A mispredict: fetch resumes after resolution plus the
        front-end refill penalty."""
        resume = self.last_commit + penalty
        if resume > self.fetch_free:
            self.fetch_free = resume


class TimingModel:
    """Assigns cycles to a committed instruction stream.

    ``stats`` times the configuration ``ipds`` describes (unprotected
    when it is ``None``).  With ``baseline_lane=True`` an unprotected
    lane rides the same front end, and ``baseline_stats`` times it.
    """

    def __init__(
        self,
        params: ProcessorParams = ProcessorParams(),
        ipds: Optional[IPDSHardwareModel] = None,
        baseline_lane: bool = False,
    ):
        self._params = params
        self._ipds = ipds
        self.memory = MemoryHierarchy(params)
        self.predictor = TwoLevelPredictor(params.history_bits)
        self._lane = _Lane(params)
        self._lanes = (_Lane(params), self._lane) if baseline_lane else (self._lane,)
        #: Committed instructions, loads, stores and branches (every
        #: lane commits the same stream).
        self._instructions = self._loads = self._stores = self._branches = 0
        self._last_fetch_block = -1
        #: id(instruction) -> (lane record, fetch block, fetch pc,
        #: memflag 0/1/2, is_branch, instruction ref).  The lane record
        #: is the front end's output when no cache is touched; the
        #: trailing ref keeps the id valid.
        self._info: Dict[int, tuple] = {}

    @property
    def stats(self) -> TimingStats:
        return self._stats(self._lane)

    @property
    def baseline_stats(self) -> Optional[TimingStats]:
        return self._stats(self._lanes[0]) if len(self._lanes) > 1 else None

    def _stats(self, lane: _Lane) -> TimingStats:
        return TimingStats(
            instructions=self._instructions, cycles=lane.last_commit,
            branch_instructions=self._branches, loads=self._loads, stores=self._stores,
        )

    # -- static instruction description --------------------------------------

    def _describe(self, instruction: Instruction) -> tuple:
        """Compute and cache everything static about one instruction."""
        params = self._params
        cls = instruction.__class__
        dest = defined_reg(instruction)
        memflag = (
            1 if cls is Load or cls is LoadIndirect
            else 2 if cls is Store or cls is StoreIndirect
            else 0
        )
        op = instruction.op if cls is BinOp else None
        latency = (
            params.mul_latency if op == "*"
            else params.div_latency if op in ("/", "%")
            else params.alu_latency
        )
        used = tuple(reg.index for reg in used_regs(instruction))
        record = (used, -1 if dest is None else dest.index, 0, latency, memflag)
        pc = max(instruction.address, 0)
        block = pc // params.l1i.block_bytes
        info = (record, block, pc, memflag, cls is CondBranch, instruction)
        self._info[id(instruction)] = info
        return info

    # -- the instruction hooks -------------------------------------------------

    def on_instruction(
        self, instruction: Instruction, touched: Optional[int]
    ) -> None:
        """Account one committed instruction: a batch of one."""
        self.on_instructions((instruction,), (touched,), 1)

    def on_instructions(
        self,
        instructions: Sequence[Instruction],
        touched: Sequence[Optional[int]],
        count: int,
    ) -> None:
        """Account one committed batch (the interpreter's flat buffer):
        cycle counts bit-identical to ``count`` calls of
        :meth:`on_instruction`, since batching changes only the call
        granularity.

        The shared front end resolves each instruction's lane record —
        its static record plus the I-cache latency on a block change
        and a memory op's data latency, each computed once — then every
        lane advances over the same records.
        """
        fetch_latency = self.memory.fetch_latency
        data_latency = self.memory.data_latency
        info_get = self._info.get
        describe = self._describe
        last_block = self._last_fetch_block
        ops: List[tuple] = []
        append = ops.append
        loads = stores = branches = 0
        for index in range(count):
            instruction = instructions[index]
            info = info_get(id(instruction))
            if info is None:
                info = describe(instruction)
            record, block, pc, memflag, is_branch, _ = info
            if block != last_block or memflag:
                fetch = 0
                if block != last_block:
                    last_block = block
                    fetch = fetch_latency(pc)
                latency = record[3]
                if memflag:
                    address = touched[index]
                    latency = data_latency(address if address else 0)
                    if memflag == 1:
                        loads += 1
                    else:
                        stores += 1
                record = (record[0], record[1], fetch, latency, memflag)
            if is_branch:
                branches += 1
            append(record)
        self._last_fetch_block = last_block
        for lane in self._lanes:
            lane.advance(ops)
        self._instructions += count
        self._loads += loads
        self._stores += stores
        self._branches += branches

    # -- control-flow hooks (event listener) -----------------------------------

    def on_branch_outcome(
        self, function_name: str, pc: int, taken: bool
    ) -> None:
        """Called when a conditional branch commits.

        The interpreter flushes the event buffer before dispatching the
        branch event, so every lane's commit frontier is exact here even
        under batched delivery.
        """
        if not self.predictor.update(pc, taken):
            penalty = self._params.branch_mispredict_penalty
            for lane in self._lanes:
                lane.redirect(penalty)
            self._last_fetch_block = -1
        ipds = self._ipds
        if ipds is not None:
            lane = self._lane
            stall = ipds.on_branch(function_name, pc, taken, lane.last_commit)
            stall += ipds.maybe_context_switch(lane.last_commit + stall)
            lane.last_commit += stall  # only the IPDS lane waits

    def on_call(self, function_name: str) -> None:
        if self._ipds is not None:
            self._ipds.on_call(function_name, self._lane.last_commit)

    def on_return(self) -> None:
        if self._ipds is not None:
            self._ipds.on_return(self._lane.last_commit)
