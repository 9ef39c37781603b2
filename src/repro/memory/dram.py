"""Fixed-latency DRAM with a per-core outstanding-request limit.

Table 1: 400-cycle access time, and "each processor can have up to 16
outstanding memory requests".  Demand misses that hit the limit wait for
the oldest request to drain; prefetches are simply dropped (hardware
prefetch queues discard, they never stall the machine).
"""

from __future__ import annotations

import heapq
from typing import List

from repro.params import MemoryConfig


class DRAM:
    """Demand and prefetch requests draw from *separate* per-core slot
    pools: real memory controllers prioritise demand fetches, so a burst
    of 25 startup prefetches must never stall a demand miss behind a
    full MSHR file — it competes for pin bandwidth instead (see
    :mod:`repro.interconnect.link`)."""

    def __init__(self, config: MemoryConfig, n_cores: int) -> None:
        self.latency = config.latency_cycles
        self.max_outstanding = config.max_outstanding_per_core
        self._demand: List[List[float]] = [[] for _ in range(n_cores)]
        self._prefetch: List[List[float]] = [[] for _ in range(n_cores)]
        self.demand_requests = 0
        self.prefetch_requests = 0
        self.stalled_issues = 0
        # Optional open-row model.
        self.row_buffer = config.row_buffer
        self.row_lines = config.row_lines
        self.row_hit_latency = config.row_hit_latency
        self._open_rows: List[int] = [-1] * config.dram_banks
        self.row_hits = 0
        self.row_misses = 0
        # The one observer reference (repro.obs.observers).
        self.observer = None

    def _access_latency(self, addr: int) -> float:
        """Latency of one DRAM access, honouring the open-row model."""
        if not self.row_buffer:
            return self.latency
        row = addr // self.row_lines
        bank = row % len(self._open_rows)
        if self._open_rows[bank] == row:
            self.row_hits += 1
            return self.row_hit_latency
        self._open_rows[bank] = row
        self.row_misses += 1
        return self.latency

    @staticmethod
    def _prune(heap: List[float], now: float) -> List[float]:
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        return heap

    def can_issue(self, core: int, now: float) -> bool:
        """Room in the core's prefetch slot pool?"""
        return len(self._prune(self._prefetch[core], now)) < self.max_outstanding

    def issue_demand(self, core: int, ready_time: float, addr: int = 0) -> float:
        """Issue a demand fetch, waiting for a free demand slot if necessary.

        Returns the completion time (data available at the pins).
        """
        heap = self._demand[core]
        while heap and heap[0] <= ready_time:  # _prune, inlined
            heapq.heappop(heap)
        start = ready_time
        if len(heap) >= self.max_outstanding:
            start = heap[0]  # wait for the oldest outstanding request
            self.stalled_issues += 1
            self._prune(heap, start)
        completion = start + (self._access_latency(addr) if self.row_buffer else self.latency)
        heapq.heappush(heap, completion)
        self.demand_requests += 1
        if self.observer is not None:
            self.observer.dram_service(core, True, start, completion)
        return completion

    def issue_prefetch(self, core: int, ready_time: float, addr: int = 0) -> float:
        """Issue a prefetch fetch; caller must have checked :meth:`can_issue`."""
        completion = ready_time + (self._access_latency(addr) if self.row_buffer else self.latency)
        heapq.heappush(self._prefetch[core], completion)
        self.prefetch_requests += 1
        if self.observer is not None:
            self.observer.dram_service(core, False, ready_time, completion)
        return completion

    def service(self, core: int, ready_time: float, addr: int, demand: bool) -> float:
        """Service one access with no slot gating (MSHR mode).

        When a first-class MSHR file (:class:`repro.memory.mshr.MSHRFile`)
        owns the outstanding-miss limit, the DRAM's own per-core slot
        pools are bypassed: the MSHR already decided whether/when the
        request may issue.  Counters, the open-row model and the observer
        event match :meth:`issue_demand`/:meth:`issue_prefetch` exactly.
        """
        completion = ready_time + self._access_latency(addr)
        if demand:
            self.demand_requests += 1
        else:
            self.prefetch_requests += 1
        if self.observer is not None:
            self.observer.dram_service(core, demand, ready_time, completion)
        return completion

    def outstanding(self, core: int, now: float) -> int:
        return len(self._prune(self._demand[core], now)) + len(
            self._prune(self._prefetch[core], now)
        )
