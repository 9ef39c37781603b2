"""Trace event types, workload specs, and the per-core trace generator.

Each trace event is one *line-touching* memory access: ``(instr_gap,
kind, line_addr)``, meaning the core executes ``instr_gap`` instructions
(which includes all the same-line accesses that trivially hit the L1)
and then touches a new-to-the-pipeline cache line.  This filtered-trace
representation is what lets a Python simulator cover billions of
simulated instructions: the instruction gap carries the cheap work, the
events carry everything the memory system cares about.

The generator composes four behaviours whose proportions define a
workload:

* **instruction fetch** — the PC walks sequential code lines inside an
  instruction footprint, jumping with ``i_jump_prob`` per data event to a
  locality-weighted target (commercial codes: multi-hundred-KB
  footprints that miss the L1I; SPEComp loops: a few lines that never do);
* **strided streams** — ``streams_per_core`` active streams walk the
  private region with strides drawn from ``stream_strides`` for
  ``stream_length`` lines before re-seeding (long streams ⇒ accurate
  prefetching, short streams ⇒ 25-deep startup overshoot, the paper's
  jbb problem);
* **irregular accesses** — locality-weighted (heavy-tail) references to
  the private or shared region (``idx = N·u^locality``: larger exponent
  ⇒ hotter head, higher cache hit rates);
* **pointer chases** — ``pointer_fraction`` of data accesses walk a
  shared :class:`~repro.workloads.linked.HeapModel` graph, each access
  landing on the line whose bytes named it (content-directed traffic the
  stride prefetchers cannot predict);
* **stores** — a fraction of data accesses write, driving MSI upgrades
  and invalidations in the shared region.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import log
from typing import Iterator, List, Tuple

IFETCH, LOAD, STORE = 0, 1, 2

# Disjoint line-address regions (line addresses, i.e. byte addr >> 6).
# The per-core spacing includes a large prime so different cores' private
# regions land at different L2 set offsets — a power-of-two spacing would
# alias every core's region onto the same sets and waste half the cache.
_I_BASE = (1 << 40) + 104729
_SHARED_BASE = (2 << 40) + 15485863
_PRIVATE_BASE = 3 << 40
_PRIVATE_STRIDE = (1 << 36) + 32452843  # per-core private region spacing

_INSTR_PER_LINE = 16  # 64-byte line / 4-byte instructions


def randbelow(getrandbits, n: int) -> int:
    """``random.Random.randrange(n)`` from the same ``getrandbits(k)``
    draws, ``k = n.bit_length()``; ``n = 1`` still draws until it gets 0."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that distinguishes one benchmark from another.

    Footprints are expressed relative to cache capacities so the same
    spec drives full-scale and scaled-down systems with identical
    capacity ratios (see DESIGN.md's substitution table).
    """

    name: str
    # data footprint
    ws_factor: float  # total data region / L2 uncompressed lines
    locality: float  # heavy-tail exponent for irregular accesses (>=1)
    # strided streams
    stride_fraction: float
    stream_length: int
    stream_strides: Tuple[Tuple[int, float], ...]
    streams_per_core: int
    # access mix
    store_fraction: float
    shared_fraction: float  # prob. an irregular access targets shared data
    # instruction stream
    i_footprint_l1i_factor: float  # instruction footprint / L1I lines
    i_jump_prob: float
    i_locality: float
    instr_per_event: float
    # core model
    tolerance: float
    cpi_base: float
    # data compressibility
    value_mix: Tuple[Tuple[str, float], ...]
    description: str = ""
    # per-core hot set: the stack/heap-top slice that gives real programs
    # their high L1 hit rates, decoupling L1 locality from L2 capacity
    # behaviour.  Accessed uniformly; part of the private region.
    hot_fraction: float = 0.45
    hot_l1d_factor: float = 0.5  # hot-set size / L1D lines
    # linked-data heap (repro.workloads.linked): fraction of data accesses
    # that chase pointers through it, and its geometry.  All-zero defaults
    # keep the heap (and its RNG draws) completely out of the trace.
    pointer_fraction: float = 0.0
    heap_nodes: int = 4096
    heap_node_lines: int = 1
    heap_out_degree: int = 2
    heap_window: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.stride_fraction <= 1.0:
            raise ValueError("stride_fraction must be in [0, 1]")
        if not 0.0 <= self.store_fraction <= 1.0:
            raise ValueError("store_fraction must be in [0, 1]")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError("shared_fraction must be in [0, 1]")
        if self.locality < 1.0 or self.i_locality < 1.0:
            raise ValueError("locality exponents must be >= 1")
        if self.stream_length < 1 or self.streams_per_core < 1:
            raise ValueError("streams must have positive length and count")
        if not 0 < sum(w for _, w in self.stream_strides) < float("inf"):
            raise ValueError("stream_strides weights must sum to a positive finite value")
        if self.instr_per_event <= 0:
            raise ValueError("instr_per_event must be positive")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if not 0.0 <= self.pointer_fraction <= 1.0:
            raise ValueError("pointer_fraction must be in [0, 1]")
        if self.stride_fraction + self.hot_fraction + self.pointer_fraction > 1.0:
            raise ValueError(
                "stride_fraction + hot_fraction + pointer_fraction must not exceed 1"
            )
        if self.pointer_fraction > 0:
            # Heap geometry only matters when the heap is walked; the
            # HeapModel re-validates, but fail early with the spec name.
            if self.heap_nodes < 2 or self.heap_node_lines < 1:
                raise ValueError("heap needs >= 2 nodes of >= 1 line")
            if not 1 <= self.heap_out_degree <= 7 or self.heap_window < 1:
                raise ValueError("heap_out_degree must be 1..7 and heap_window >= 1")


class _StreamState:
    __slots__ = ("pos", "stride", "remaining")

    def __init__(self) -> None:
        self.pos = 0
        self.stride = 1
        self.remaining = 0


class TraceGenerator:
    """Per-core, seeded, infinite event stream for one workload."""

    def __init__(
        self,
        spec: WorkloadSpec,
        core_id: int,
        n_cores: int,
        l2_lines: int,
        l1i_lines: int,
        seed: int = 0,
        heap=None,
    ) -> None:
        if not 0 <= core_id < n_cores:
            raise ValueError("core_id out of range")
        self.spec = spec
        self.core_id = core_id
        self.n_cores = n_cores
        self.rng = random.Random((seed * 1_000_003 + core_id) ^ 0xC0FFEE)

        total_data = max(int(spec.ws_factor * l2_lines), n_cores * 64)
        self.shared_lines = max(int(total_data * spec.shared_fraction), 16)
        self.private_lines = max((total_data - self.shared_lines) // n_cores, 64)
        self.private_base = _PRIVATE_BASE + core_id * _PRIVATE_STRIDE
        self.hot_lines = max(min(int(spec.hot_l1d_factor * l1i_lines),
                                 self.private_lines // 2), 8)
        self.i_lines = max(int(spec.i_footprint_l1i_factor * l1i_lines), 4)

        if heap is None and spec.pointer_fraction > 0:
            from repro.workloads.linked import HeapModel

            heap = HeapModel.from_spec(spec, seed=seed)
        self.heap = heap
        # Each core starts its chase at its own slice of the heap; the walk
        # itself is heap-deterministic, only slot choice draws RNG.
        self._chase_node = (core_id * heap.nodes) // n_cores if heap is not None else 0

        self._pc_line = 0  # line offset within the instruction footprint
        self._instr_into_line = 0
        self._stride_choices = [s for s, _ in spec.stream_strides]
        # Cumulative, as random.choices would build them on every draw.
        self._stride_cum_weights = list(accumulate(w for _, w in spec.stream_strides))
        self._streams = [self._seed_stream(_StreamState()) for _ in range(spec.streams_per_core)]
        # Events drawn but not yet emitted by fill_chunk (a chunk boundary
        # can land mid-way through a step's pending instruction fetches).
        self._chunk_pending: List[Tuple[int, int, int]] = []

    # -- public -------------------------------------------------------------

    def events(self) -> Iterator[Tuple[int, int, int]]:
        """The event stream: ``(instr_gap, kind, line_addr)`` forever,
        generated :data:`CHUNK` events at a time.  The next chunk is drawn
        only once the last one is used up, and ``next()`` on the chained
        iterator runs in C, with no Python frame per event."""
        return chain.from_iterable(map(self.fill_chunk, repeat(CHUNK)))

    def fill_chunk(self, n: int) -> List[Tuple[int, int, int]]:
        """The next ``n`` events of the stream, as a list.

        One call amortises the spec/RNG local binding over the whole
        chunk.  Each step draws one data event, emitted first, then its
        pending instruction fetches in LIFO order.  The PC-walk state is
        persisted back to the instance, and a chunk boundary mid-step
        parks the unemitted fetches in ``_chunk_pending``, so the stream
        does not depend on how it is cut into chunks.

        Each ``random.Random`` helper is inlined as the C-level draws it
        makes, in order (see :func:`randbelow`), so no bit changes.
        """
        rng = self.rng
        spec = self.spec
        random_ = rng.random
        getrandbits = rng.getrandbits
        jump_prob = spec.i_jump_prob
        i_locality = spec.i_locality
        store_fraction = spec.store_fraction
        i_lines = self.i_lines
        mean = spec.instr_per_event
        rate = 1.0 / mean if mean > 1 else 0.0
        stride_fraction = spec.stride_fraction
        stride_or_hot = spec.stride_fraction + spec.hot_fraction
        hot_or_pointer = stride_or_hot + spec.pointer_fraction
        shared_fraction = spec.shared_fraction
        locality = spec.locality
        shared_lines = self.shared_lines
        private_lines = self.private_lines
        private_base = self.private_base
        hot_lines = self.hot_lines
        hot_k = hot_lines.bit_length()
        streams = self._streams
        n_streams = len(streams)
        stream_k = n_streams.bit_length()
        heap = self.heap
        out_degree, node_lines = (heap.out_degree, heap.node_lines) if heap is not None else (1, 1)
        out_k, node_k = out_degree.bit_length(), node_lines.bit_length()
        chase_node = self._chase_node
        pc_line = self._pc_line
        instr_into_line = self._instr_into_line
        pending = self._chunk_pending
        append = pending.append
        pop = pending.pop
        out: List[Tuple[int, int, int]] = []
        emit = out.append
        count = 0
        while pending and count < n:
            emit(pop())
            count += 1
        while count < n:
            # Geometric-ish gap with the configured mean, at least 1.
            gap = 1 + int(-log(1.0 - random_()) / rate) if rate else 1
            # Instruction-side: advance the PC, jump occasionally, queue an
            # IFETCH for every new code line entered.
            if random_() < jump_prob:
                pc_line = int(i_lines * (random_() ** i_locality))
                instr_into_line = 0
                append((0, IFETCH, _I_BASE + pc_line))
            instr_into_line += gap
            crossed = instr_into_line // _INSTR_PER_LINE
            if crossed:
                instr_into_line %= _INSTR_PER_LINE
                # At most 2 fetch events per gap; a long sequential run
                # touches each line once, and the gap rarely spans more.
                for i in range(min(crossed, 2)):
                    pc_line = (pc_line + 1) % i_lines
                    append((0, IFETCH, _I_BASE + pc_line))
            # Data-side: one access per step, randrange(n) as randbelow's loop.
            r = random_()
            if r < stride_fraction:
                x = getrandbits(stream_k)
                while x >= n_streams:
                    x = getrandbits(stream_k)
                stream = streams[x]
                if stream.remaining <= 0:
                    self._seed_stream(stream)
                addr = private_base + (stream.pos % private_lines)
                stream.pos += stream.stride
                stream.remaining -= 1
            elif r < stride_or_hot:
                x = getrandbits(hot_k)
                while x >= hot_lines:
                    x = getrandbits(hot_k)
                addr = private_base + x
            elif r < hot_or_pointer:
                x = getrandbits(out_k)
                while x >= out_degree:
                    x = getrandbits(out_k)
                node = chase_node
                chase_node = heap.successor(node, x)
                x = getrandbits(node_k)
                while x >= node_lines:
                    x = getrandbits(node_k)
                addr = heap.node_line(node) + x
            elif random_() < shared_fraction:
                addr = _SHARED_BASE + int(shared_lines * (random_() ** locality))
            else:
                addr = private_base + int(private_lines * (random_() ** locality))
            emit((gap, STORE if random_() < store_fraction else LOAD, addr))
            count += 1
            while pending and count < n:
                emit(pop())
                count += 1
        self._pc_line = pc_line
        self._instr_into_line = instr_into_line
        self._chase_node = chase_node
        return out

    # -- internals ------------------------------------------------------------

    def _seed_stream(self, stream: _StreamState) -> _StreamState:
        stream.pos = randbelow(self.rng.getrandbits, self.private_lines)
        cum = self._stride_cum_weights
        x = self.rng.random() * (cum[-1] + 0.0)  # random.choices, inlined
        stream.stride = self._stride_choices[bisect_right(cum, x, 0, len(cum) - 1)]
        stream.remaining = self.spec.stream_length
        return stream


#: Events per refill of :meth:`TraceGenerator.events`.
CHUNK = 256
