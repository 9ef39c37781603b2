"""On-chip interconnect between the private L1s and the shared L2 banks.

Table 1 gives the L1s "320 GB/sec. total on-chip bandwidth"; Figure 2
draws an on-chip network between cores and the banked L2.  At 5 GHz,
320 GB/s is 64 bytes — one full line — per cycle in aggregate, so this
link is rarely the bottleneck (which is why it can be disabled without
changing any paper result; see `test_ablation_noc`).  We model it as
per-core busy-until channels carved from the aggregate budget, charging
line transfers between L1 and L2.
"""

from __future__ import annotations

from typing import Optional

from repro.params import LINE_BYTES


class OnChipNetwork:
    def __init__(
        self,
        n_cores: int,
        total_bandwidth_gbs: Optional[float],
        clock_ghz: float,
    ) -> None:
        """``total_bandwidth_gbs=None`` disables the model entirely.

        Table 1 specifies the *total* from/to-L1 bandwidth, so the model
        is a single shared channel whose occupancy per line is
        ``LINE_BYTES / (total bytes-per-cycle)`` — 1 cycle per line at
        the full-scale 320 GB/s.
        """
        if n_cores <= 0:
            raise ValueError("need at least one core")
        self.enabled = total_bandwidth_gbs is not None
        if self.enabled:
            if total_bandwidth_gbs <= 0:
                raise ValueError("on-chip bandwidth must be positive")
            self.bytes_per_cycle = total_bandwidth_gbs / clock_ghz
        else:
            self.bytes_per_cycle = float("inf")
        self._window_start = 0.0
        self._window_bytes = 0.0
        self.transfers = 0
        self.bytes_total = 0
        self.queue_cycles = 0.0
        # The one observer reference (repro.obs.observers).
        self.observer = None

    #: Wire/router latency to the first (critical) word.
    WIRE_CYCLES = 2.0
    #: Utilization measurement window (cycles).
    WINDOW = 1024.0
    #: Queue-delay cap: a saturated NoC behaves like a short FIFO, not an
    #: unbounded queue (upstream back-pressure limits it).
    MAX_QUEUE = 64.0

    def transfer_line(self, core: int, ready_time: float) -> float:
        """Move one cache line from an L2 bank to a core's L1.

        Returns the consumer-visible completion time: wire latency plus a
        congestion delay estimated from the channel's recent utilization
        (an M/D/1-style u/(1-u) term over a sliding window).  Unlike a
        busy-until model, this is robust to the non-monotonic ready times
        that interleaved 20-cycle L2 hits and 400-cycle memory fills
        produce.
        """
        self.transfers += 1
        self.bytes_total += LINE_BYTES
        if not self.enabled:
            return ready_time
        if ready_time >= self._window_start + self.WINDOW:
            self._window_start = ready_time
            self._window_bytes = 0.0
        self._window_bytes += LINE_BYTES
        capacity = self.WINDOW * self.bytes_per_cycle
        utilization = min(self._window_bytes / capacity, 0.98)
        duration = LINE_BYTES / self.bytes_per_cycle
        delay = min(duration * utilization / (1.0 - utilization), self.MAX_QUEUE)
        self.queue_cycles += delay
        if self.observer is not None:
            self.observer.noc_transfer(core, ready_time, self.WIRE_CYCLES + delay)
        return ready_time + self.WIRE_CYCLES + delay

    def reset_stats(self) -> None:
        # Counters only.  The utilization window is *machine* state — it
        # feeds the congestion delay of future transfers — so clearing it
        # here would let a warmup-boundary reset perturb post-reset
        # timing (caught by the reset-conservation property, fuzz seed 53).
        self.transfers = 0
        self.bytes_total = 0
        self.queue_cycles = 0.0
