"""Set-associative caches and TLB for the timing model."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

from .params import CacheParams, ProcessorParams


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of set-associative cache with LRU replacement."""

    def __init__(self, params: CacheParams, name: str = "cache"):
        self.params = params
        self.name = name
        self.stats = CacheStats()
        # The geometry, bound once: ``access`` runs per fetch and per
        # data reference.
        self._block_bytes = params.block_bytes
        self._set_count = params.sets
        self._associativity = params.associativity
        # set index -> OrderedDict of tags (LRU order: oldest first).
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}

    def access(self, address: int) -> bool:
        """Touch an address; returns True on hit.  Fills on miss."""
        stats = self.stats
        stats.accesses += 1
        block = address // self._block_bytes
        index = block % self._set_count
        tag = block // self._set_count
        ways = self._sets.get(index)
        if ways is None:
            ways = self._sets[index] = OrderedDict()
        elif tag in ways:
            ways.move_to_end(tag)
            return True
        stats.misses += 1
        ways[tag] = True
        if len(ways) > self._associativity:
            ways.popitem(last=False)
        return False


class TLB:
    """Fully-associative LRU translation buffer."""

    def __init__(self, entries: int, page_bytes: int):
        self._entries = entries
        self._page_bytes = page_bytes
        self._pages: "OrderedDict[int, bool]" = OrderedDict()
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        self.stats.accesses += 1
        page = address // self._page_bytes
        if page in self._pages:
            self._pages.move_to_end(page)
            return True
        self.stats.misses += 1
        self._pages[page] = True
        if len(self._pages) > self._entries:
            self._pages.popitem(last=False)
        return False


class MemoryHierarchy:
    """L1I + L1D + unified L2 + DRAM + TLB, returning access latencies."""

    def __init__(self, params: ProcessorParams):
        self._params = params
        self.l1i = Cache(params.l1i, "L1I")
        self.l1d = Cache(params.l1d, "L1D")
        self.l2 = Cache(params.l2, "L2")
        self.dtlb = TLB(params.tlb_entries, params.page_bytes)
        # Latency of an L1 hit, an L2 hit and a DRAM fill, per side.
        self._fetch_levels = self._levels(params.l1i)
        self._data_levels = self._levels(params.l1d)

    def _levels(self, l1: CacheParams) -> Tuple[int, int, int]:
        l2 = l1.latency + self._params.l2.latency
        return l1.latency, l2, l2 + self._params.memory_latency(l1.block_bytes)

    def fetch_latency(self, pc: int) -> int:
        """Instruction-fetch latency for one PC."""
        l1, l2, dram = self._fetch_levels
        if self.l1i.access(pc):
            return l1
        return l2 if self.l2.access(pc) else dram

    def data_latency(self, address: int) -> int:
        """Data access latency for one word address (byte-scaled)."""
        byte_address = address * 8  # word-addressed memory, 8-byte words
        l1, l2, dram = self._data_levels
        tlb = 0 if self.dtlb.access(byte_address) else self._params.tlb_miss_latency
        if self.l1d.access(byte_address):
            return tlb + l1
        return tlb + (l2 if self.l2.access(byte_address) else dram)
