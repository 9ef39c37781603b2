"""Adaptive cache compression policy (Alameldeen & Wood, ISCA 2004).

The HPCA'07 paper's compressed L2 also implements this: "an adaptive
compression algorithm that dynamically compresses lines only when the
benefit of compression (reduced misses) outweighs the cost (increased
L2 hit latency due to decompression)".  For the paper's workloads the
policy always chose to compress; we implement it so that claim — and
workloads where it does *not* hold — can be evaluated.

Mechanism (from ISCA'04): a global saturating counter is updated on L2
accesses using the LRU stack depth of the touched line:

* a hit whose stack depth lies *beyond* the uncompressed associativity
  would have been a miss without compression — credit the counter with
  the avoided miss penalty;
* a hit to a *compressed* line within the uncompressed ways paid the
  decompression latency for nothing — debit the counter by that penalty;
* misses to lines that compression could not have held leave the counter
  unchanged.

New lines are stored compressed while the counter is non-negative.
"""

from __future__ import annotations


class AdaptiveCompressionPolicy:
    def __init__(
        self,
        miss_penalty: float = 400.0,
        decompression_penalty: float = 5.0,
        saturation: float = 1_000_000.0,
        enabled: bool = True,
    ) -> None:
        if miss_penalty < 0 or decompression_penalty < 0:
            raise ValueError("penalties must be non-negative")
        if saturation <= 0:
            raise ValueError("saturation must be positive")
        self.miss_penalty = miss_penalty
        self.decompression_penalty = decompression_penalty
        self.saturation = saturation
        self.enabled = enabled
        self.counter = 0.0
        self.avoided_miss_events = 0
        self.penalized_hit_events = 0
        # The one observer reference (repro.obs.observers), told when the
        # policy's compress/don't-compress phase flips; observers never
        # touch the counter.
        self.observer = None

    def reset_stats(self) -> None:
        """Zero the *event* tallies; the benefit/cost ``counter`` is the
        policy's learned state and deliberately survives a stats reset."""
        self.avoided_miss_events = 0
        self.penalized_hit_events = 0

    def should_compress(self) -> bool:
        """Store the next compressible line compressed?"""
        return not self.enabled or self.counter >= 0.0

    def on_hit(self, stack_depth: int, uncompressed_assoc: int, compressed: bool) -> None:
        """Feed one L2 hit: ``stack_depth`` is the line's 0-based LRU
        position, ``compressed`` whether the line paid decompression."""
        if stack_depth >= uncompressed_assoc:
            # Only reachable because compression packed extra lines in.
            self.avoided_miss_events += 1
            self._bump(self.miss_penalty)
        elif compressed:
            self.penalized_hit_events += 1
            self._bump(-self.decompression_penalty)

    def _bump(self, delta: float) -> None:
        was_compressing = self.counter >= 0.0
        self.counter = max(-self.saturation, min(self.saturation, self.counter + delta))
        if self.observer is not None and (self.counter >= 0.0) != was_compressing:
            self.observer.compression_phase(self.counter >= 0.0, self.counter)
