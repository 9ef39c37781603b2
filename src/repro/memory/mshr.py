"""Miss status holding registers and the L2-to-memory write-back buffer.

Table 1's "each processor can have up to 16 outstanding memory requests"
is, in the legacy model, a bare per-core slot gate inside
:class:`repro.memory.dram.DRAM`.  ``MemoryConfig.mshr_entries`` replaces
that gate with a first-class MSHR file: one entry per in-flight line
fetch, held from request issue until the data lands on-chip (the DRAM
gate releases at *memory* completion, before the pin-link transfer — an
MSHR cannot retire until the fill is delivered).  Demand misses stall
for the oldest entry when the file is full; prefetches are dropped
(counted in ``PrefetchStats.dropped``); and a miss to a line whose
fetch is still in flight *coalesces* — it rides the existing entry's
data return instead of issuing a second DRAM fetch (no request message,
no data message, no DRAM access).

:class:`WriteBackBuffer` bounds the dirty-eviction path the same way:
the legacy model puts every write-back on the pin link the cycle its
eviction happens; a bounded buffer holds up to ``capacity`` in-flight
write-backs and delays further evictions' link traffic until the oldest
drains (the eviction itself never stalls — hardware retires the line
and parks the data).

Both structures are timing-only state machines over plain heaps, like
the DRAM and NoC objects.  Measurement counters (allocations, coalesced fills, stalls, peaks) are
zeroed by ``MemoryHierarchy.reset_stats``; occupancy state is machine
state and survives the warmup boundary.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple


class MSHRFile:
    """Per-core MSHR files with global in-flight line tracking.

    ``_heaps[core]`` holds the data-arrival times of that core's live
    entries; ``_inflight`` maps line address -> ``(data_done, segments)``
    of the most recent fetch of that line, for secondary-miss
    coalescing.  An entry whose ``data_done`` is in the past is free —
    heaps are pruned lazily against the asking time, the same
    busy-until discipline the DRAM slot pools use.
    """

    def __init__(self, entries: int, n_cores: int) -> None:
        self.entries = entries
        self._heaps: List[List[float]] = [[] for _ in range(n_cores)]
        self._inflight: Dict[int, Tuple[float, int]] = {}
        # Measurement counters (reset by MemoryHierarchy.reset_stats).
        self.allocations = 0
        self.coalesced = 0
        self.stalls = 0
        self.peak_occupancy = 0

    def _prune(self, core: int, now: float) -> List[float]:
        heap = self._heaps[core]
        inflight = self._inflight
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        # Bound _inflight: drop arrived lines (their data is no longer
        # in flight, so they can never coalesce again).
        if len(inflight) > 4 * sum(len(h) for h in self._heaps) + 64:
            for addr in [a for a, rec in inflight.items() if rec[0] <= now]:
                del inflight[addr]
        return heap

    def lookup(self, addr: int, now: float):
        """The in-flight record for ``addr`` if its data has not yet
        arrived by ``now``, else None."""
        rec = self._inflight.get(addr)
        if rec is not None and rec[0] > now:
            return rec
        return None

    def can_allocate(self, core: int, now: float) -> bool:
        """Room for a new entry without stalling?  (Prefetch gate.)"""
        return len(self._prune(core, now)) < self.entries

    def allocate(self, core: int, ready_time: float, demand: bool) -> float:
        """Claim an entry, returning the time the request may proceed.

        A demand miss with the file full waits for the oldest entry's
        data to arrive (and counts a stall); callers on the prefetch
        path must have checked :meth:`can_allocate` or :meth:`lookup`
        first, so prefetches never wait here.
        """
        heap = self._prune(core, ready_time)
        start = ready_time
        if len(heap) >= self.entries:
            start = heap[0]  # wait for the oldest in-flight fill
            if demand:
                self.stalls += 1
            self._prune(core, start)
        self.allocations += 1
        return start

    def commit(self, core: int, addr: int, data_done: float, segments: int) -> None:
        """Record the allocated entry's fetch: held until ``data_done``."""
        heap = self._heaps[core]
        heapq.heappush(heap, data_done)
        self._inflight[addr] = (data_done, segments)
        if len(heap) > self.peak_occupancy:
            self.peak_occupancy = len(heap)

    def coalesce(self, addr: int) -> None:
        """Count a secondary miss merged onto the in-flight entry."""
        self.coalesced += 1

    def occupancy(self, now: float) -> int:
        """Live entries across all cores (metrics gauge / trace counter)."""
        return sum(len(self._prune(core, now)) for core in range(len(self._heaps)))

    def reset_stats(self) -> None:
        self.allocations = 0
        self.coalesced = 0
        self.stalls = 0
        self.peak_occupancy = 0


class WriteBackBuffer:
    """Bounded buffer of in-flight L2-to-memory write-backs.

    ``insert`` sends the write-back's data message through ``send``
    (``PinLink.send_data``) — immediately when a slot is free, else
    delayed to the oldest in-flight write-back's drain time.  A slot is
    held until its link transfer completes.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._drain: List[float] = []
        # Measurement counters (reset by MemoryHierarchy.reset_stats).
        self.inserted = 0
        self.full_stalls = 0
        self.peak_occupancy = 0

    def insert(self, now: float, segments: int, send) -> float:
        """Buffer one write-back; returns its link-drain completion time."""
        drain = self._drain
        while drain and drain[0] <= now:
            heapq.heappop(drain)
        start = now
        if len(drain) >= self.capacity:
            start = drain[0]  # the eviction's traffic waits for a slot
            self.full_stalls += 1
            while drain and drain[0] <= start:
                heapq.heappop(drain)
        done = send(start, segments)
        if done <= start:
            done = start  # infinite-bandwidth links drain instantly
        heapq.heappush(drain, done)
        self.inserted += 1
        if len(drain) > self.peak_occupancy:
            self.peak_occupancy = len(drain)
        return done

    def occupancy(self, now: float) -> int:
        drain = self._drain
        while drain and drain[0] <= now:
            heapq.heappop(drain)
        return len(drain)

    def reset_stats(self) -> None:
        self.inserted = 0
        self.full_stalls = 0
        self.peak_occupancy = 0
