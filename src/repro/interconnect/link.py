"""The shared off-chip pin link with busy-until queuing.

Both directions share the configured bandwidth (a pin budget).  Each
message occupies the link for ``bytes / bytes_per_cycle`` cycles starting
no earlier than the link is free; the wait is the queuing delay that
makes prefetch traffic hurt demand misses under contention.

``bandwidth_gbs=None`` models the paper's infinite-pin configuration used
to measure *bandwidth demand*: messages never queue and transfer
instantly, but every byte is still counted.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.compression.link import MessageSizer
from repro.params import SEGMENTS_PER_LINE, LinkConfig
from repro.stats.counters import LinkStats


class PinLink:
    def __init__(self, config: LinkConfig, clock_ghz: float) -> None:
        self.config = config
        self.sizer = MessageSizer(compressed=config.compressed, header_bytes=config.header_bytes)
        self.bytes_per_cycle: Optional[float] = (
            None if config.bandwidth_gbs is None else config.bandwidth_gbs / clock_ghz
        )
        if self.bytes_per_cycle is not None and self.bytes_per_cycle <= 0:
            raise ValueError("pin bandwidth must be positive")
        self.free_time = 0.0
        self.stats = LinkStats()
        # The one observer reference (repro.obs.observers); None when
        # every observer is off.
        self.observer = None
        # Precomputed message sizes; ``_data_sizes`` maps 1-8 segments to
        # ``(bytes, flits, payload bytes)``.
        self._header = self.config.header_bytes
        self._request_bytes = self.sizer.request_bytes()
        self._equiv_bytes = self.sizer.uncompressed_equiv_bytes()
        self._data_sizes = {s: self._data_size(s) for s in range(1, SEGMENTS_PER_LINE + 1)}

    def _data_size(self, segments: int) -> Tuple[int, int, int]:
        nbytes = self.sizer.data_bytes(segments)  # checks the segment range
        return nbytes, nbytes // self._header, nbytes - self._header

    def reset_stats(self) -> None:
        self.stats = LinkStats()

    # -- transfers ----------------------------------------------------------

    REQUEST_TRANSIT = 2.0  # cycles for a header on the address/command pins

    def send_request(self, ready_time: float) -> float:
        """Header-only message (miss request / ack).

        Requests travel on address/command pins: they are counted in the
        byte totals but do not occupy the data-pin budget, so demand
        requests never queue behind data responses still hundreds of
        cycles away in DRAM.
        """
        nbytes = self._request_bytes
        stats = self.stats
        stats.messages += 1
        stats.flits += nbytes // self._header
        stats.bytes_total += nbytes
        stats.bytes_header += nbytes
        return ready_time + self.REQUEST_TRANSIT

    def send_data(self, ready_time: float, segments: int) -> float:
        """Line-carrying message (fill response or writeback): occupies the
        data pins for its serialization time, queuing when busy."""
        nbytes, flits, payload = self._data_sizes.get(segments) or self._data_size(segments)
        stats = self.stats
        stats.messages += 1
        stats.data_messages += 1
        stats.flits += flits
        stats.bytes_total += nbytes
        stats.bytes_data += payload
        stats.bytes_header += self._header
        stats.uncompressed_equiv_bytes += self._equiv_bytes
        if self.bytes_per_cycle is None:
            return ready_time
        start = self.free_time
        if start < ready_time:
            start = ready_time
        duration = nbytes / self.bytes_per_cycle
        self.free_time = start + duration
        stats.queue_cycles += start - ready_time
        if self.observer is not None:
            self.observer.link_data(start, start + duration, nbytes, start - ready_time)
        return start + duration

    # -- introspection ------------------------------------------------------

    def occupancy(self, elapsed_cycles: float) -> float:
        """Fraction of cycles the link spent transferring (finite BW only)."""
        if self.bytes_per_cycle is None or elapsed_cycles <= 0:
            return 0.0
        busy = self.stats.bytes_total / self.bytes_per_cycle
        return min(1.0, busy / elapsed_cycles)
