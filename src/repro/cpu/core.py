"""Core timing model: base CPI plus partially-hidden memory stalls.

The paper's cores are 4-wide out-of-order with a 64-entry instruction
window; their ability to overlap miss latency with execution shows up in
EQ 1's instructions/cycle term.  We model that ability directly: compute
work advances the local clock at ``cpi_base`` cycles per instruction, and
a memory access that takes ``latency`` cycles beyond the L1 stalls the
core for ``latency * (1 - tolerance)`` cycles, where ``tolerance`` is the
per-workload fraction of miss latency the window can hide (scientific
codes with independent strided loads hide more than pointer-chasing
commercial codes).
"""

from __future__ import annotations

from repro.stats.counters import CoreStats


class CoreTimingModel:
    __slots__ = (
        "core_id",
        "cpi_base",
        "tolerance",
        "hide_cycles",
        "time",
        "start_time",
        "stats",
    )

    def __init__(
        self,
        core_id: int,
        cpi_base: float = 1.0,
        tolerance: float = 0.3,
        hide_cycles: float = 12.0,
    ) -> None:
        """``hide_cycles`` is the latency any out-of-order window hides
        completely (roughly an L2-hit's worth); ``tolerance`` is the
        fraction of the *remaining* latency overlapped with useful work.
        """
        if not 0.0 <= tolerance < 1.0:
            raise ValueError("tolerance must be in [0, 1)")
        if cpi_base <= 0:
            raise ValueError("cpi_base must be positive")
        if hide_cycles < 0:
            raise ValueError("hide_cycles must be non-negative")
        self.core_id = core_id
        self.cpi_base = cpi_base
        self.tolerance = tolerance
        self.hide_cycles = hide_cycles
        self.time = 0.0
        self.start_time = 0.0  # measurement epoch (set after warmup)
        self.stats = CoreStats()

    def advance_compute(self, instructions: int) -> None:
        self.time += instructions * self.cpi_base
        self.stats.instructions += instructions
        self.stats.cycles = self.time - self.start_time

    def apply_memory_latency(self, latency: float, *, l1_hit: bool) -> None:
        """Charge an access's latency; L1 hits are fully pipelined."""
        if l1_hit or latency <= 0:
            return
        stall = max(0.0, latency - self.hide_cycles) * (1.0 - self.tolerance)
        self.time += stall
        self.stats.memory_stall_cycles += stall
        self.stats.cycles = self.time - self.start_time

    def reset_stats(self) -> None:
        """Zero counters after warmup.

        The clock keeps running (link and DRAM busy-until times stay
        consistent); measurement simply restarts from the current time.
        """
        self.start_time = self.time
        self.stats = CoreStats()
