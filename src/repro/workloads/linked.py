"""Linked-data heap model and the pointer-chasing workload.

The synthetic generators in :mod:`repro.workloads.base` cover strided,
hot-set and heavy-tailed irregular traffic, but none of it is *content
directed*: the next address never depends on the bytes of the last line.
Linked data structures (lists, trees, hash chains) are exactly that, and
they are the case stride prefetchers cannot touch — the motivation for
content-directed pointer-chase prefetching (Srivastava & Navalakha,
arXiv:1801.08088).

:class:`HeapModel` is a deterministic graph of fixed-size nodes laid out
in a dedicated line-address region.  Each node's first line physically
embeds the byte addresses of its ``out_degree`` successors as aligned
64-bit big-endian words; the remaining words (and any payload lines) are
small filler values.  The same object serves three consumers:

* the trace generator walks ``successor()`` edges to produce the access
  stream,
* the value model returns ``line_words()`` so the compressor sizes the
  *actual* pointer bytes, and
* the pointer-chase prefetcher scans those same words for heap-region
  addresses on every demand fill.

Successors are a mix-hash of (node, slot, seed) within a forward
``window``, so the chase wanders the whole heap with tunable spatial
locality and no RNG state of its own — the generators, the value model,
the prefetcher and the oracle all see the identical graph.
"""

from __future__ import annotations

from typing import Dict, List

from repro.params import LINE_BYTES
from repro.workloads.base import WorkloadSpec

# Line-address base of the heap region: disjoint from the instruction,
# shared and private regions of repro.workloads.base, offset by a prime
# so heap lines spread over L2 sets like the other regions do.
HEAP_BASE = (4 << 40) + 122949823

_MASK64 = (1 << 64) - 1
_WORDS_PER_LINE = LINE_BYTES // 4


class HeapModel:
    """A deterministic linked-node heap in its own address region."""

    def __init__(
        self,
        nodes: int = 4096,
        node_lines: int = 1,
        out_degree: int = 2,
        window: int = 64,
        seed: int = 0,
    ) -> None:
        if nodes < 2:
            raise ValueError("heap needs at least 2 nodes")
        if node_lines < 1:
            raise ValueError("node_lines must be positive")
        if not 1 <= out_degree <= 7:
            raise ValueError("out_degree must be in 1..7 (pointers live in one line)")
        if window < 1:
            raise ValueError("successor window must be positive")
        self.nodes = nodes
        self.node_lines = node_lines
        self.out_degree = out_degree
        self.window = window
        self.seed = seed
        self.base = HEAP_BASE
        self.total_lines = nodes * node_lines
        self._line_cache: Dict[int, List[int]] = {}

    @classmethod
    def from_spec(cls, spec: WorkloadSpec, seed: int = 0) -> "HeapModel":
        return cls(
            nodes=spec.heap_nodes,
            node_lines=spec.heap_node_lines,
            out_degree=spec.heap_out_degree,
            window=spec.heap_window,
            seed=seed,
        )

    # -- address geometry ---------------------------------------------------

    def contains(self, line_addr: int) -> bool:
        return self.base <= line_addr < self.base + self.total_lines

    def node_line(self, node: int) -> int:
        """The node's first line — the one carrying its pointers."""
        return self.base + (node % self.nodes) * self.node_lines

    # -- graph structure ----------------------------------------------------

    def _mix(self, a: int, b: int) -> int:
        # splitmix64-style finalizer over (a, b, seed): cheap, stateless,
        # and identical however the heap is traversed.
        x = (
            a * 0x9E3779B97F4A7C15
            + b * 0xBF58476D1CE4E5B9
            + self.seed * 0x94D049BB133111EB
        ) & _MASK64
        x ^= x >> 31
        x = (x * 0xD6E8FEB86659FD93) & _MASK64
        x ^= x >> 27
        return x

    def successor(self, node: int, slot: int) -> int:
        """Successor node for one outgoing pointer slot: a forward step of
        1..window, wrapping, so chains cover the heap without cycles of
        trivial length."""
        step = 1 + self._mix(node, slot) % self.window
        return (node + step) % self.nodes

    # -- line contents ------------------------------------------------------

    def line_words(self, line_addr: int) -> List[int]:
        """The 16 big-endian 32-bit words stored at a heap line.

        A node's first line holds its successors' *byte* addresses as
        aligned (high word, low word) pairs in slots 0..out_degree-1;
        everything else is filler below 2**14, far below any heap line's
        high word, so no filler pair can masquerade as a pointer.
        """
        if not self.contains(line_addr):
            raise ValueError(f"line {line_addr:#x} is outside the heap")
        cached = self._line_cache.get(line_addr)
        if cached is None:
            offset = line_addr - self.base
            node, line_in_node = divmod(offset, self.node_lines)
            words = [self._mix(offset, 0x40 + i) & 0x3FFF for i in range(_WORDS_PER_LINE)]
            if line_in_node == 0:
                for slot in range(self.out_degree):
                    target = self.node_line(self.successor(node, slot)) * LINE_BYTES
                    words[2 * slot] = target >> 32
                    words[2 * slot + 1] = target & 0xFFFFFFFF
            cached = self._line_cache[line_addr] = words
        return list(cached)


# The linked-data workload: a pointer-chasing benchmark in the style of
# the commercial specs.  Half the data traffic walks the heap graph; the
# rest is the usual hot-set / heavy-tail mixture, so caches still see
# ordinary reuse alongside the chains.
CHASE = WorkloadSpec(
    name="chase",
    ws_factor=2.0,
    locality=1.8,
    stride_fraction=0.06,
    stream_length=8,
    stream_strides=((1, 0.7), (2, 0.2), (-1, 0.1)),
    streams_per_core=2,
    store_fraction=0.12,
    shared_fraction=0.10,
    i_footprint_l1i_factor=2.0,
    i_jump_prob=0.25,
    i_locality=2.5,
    instr_per_event=45.0,
    tolerance=0.25,
    cpi_base=1.0,
    value_mix=(
        ("pointer", 0.38),
        ("near_zero", 0.14),
        ("int64", 0.16),
        ("small_int", 0.12),
        ("random", 0.20),
    ),
    hot_fraction=0.24,
    hot_l1d_factor=0.5,
    pointer_fraction=0.50,
    heap_nodes=4096,
    heap_node_lines=2,
    heap_out_degree=2,
    heap_window=64,
    description="pointer-chasing linked lists/trees over a 4K-node heap",
)

LINKED = (CHASE,)
