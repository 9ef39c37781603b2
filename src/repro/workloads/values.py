"""Data-value models: generate real 64-byte line contents per workload.

FPC's benefit depends entirely on what the bytes look like, so instead of
assigning compression ratios by fiat we generate *concrete word values*
from distributions that mimic each benchmark's data (database records
full of small integers and 64-bit counters, web-server buffers of
text-like bytes, pointer-rich Java heaps, dense floating-point arrays)
and let the real FPC encoder decide how many segments each line needs.

Lines are drawn from a fixed per-workload pool (default 1024 lines) and
mapped to addresses by a multiplicative hash, so a given address always
has the same contents and the resident mix matches the global mix.

Linked-data workloads overlay a :class:`~repro.workloads.linked.HeapModel`
on top of the pool: addresses inside the heap region return the heap's
actual node lines (embedded successor pointers and all), sized by the
active scheme on demand, so the pointer-chase prefetcher and the
compressor both see the same concrete bytes.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Dict, List, Sequence, Tuple

from repro.compression.fpc import WORDS_PER_LINE, sizes_for
from repro.compression.segments import segments_for_size
from repro.params import LINE_BYTES
from repro.workloads.base import randbelow

_WordGen = Callable[[random.Random], List[int]]
_MASK32 = 0xFFFFFFFF


def fpc_size_bytes(words: Sequence[int]) -> int:
    """FPC size of one on-demand (heap) line: the pool's batched sizer
    over a batch of one, so FPC has one sizing path.  A module function,
    not a lambda, so a span tracer can wrap it by name."""
    return sizes_for((words,))[0]


def _zero_line(rng: random.Random) -> List[int]:
    """Zero-initialised / sparse data — FPC's best case."""
    return [0] * WORDS_PER_LINE


def _near_zero_line(rng: random.Random) -> List[int]:
    """Mostly zero with a couple of small values (sparse structs)."""
    getrandbits = rng.getrandbits
    words = [0] * WORDS_PER_LINE
    for _ in range(randbelow(getrandbits, 3) + 1):  # randint(1, 3)
        # The right side runs first: the value is drawn before the index.
        words[randbelow(getrandbits, WORDS_PER_LINE)] = randbelow(getrandbits, 100) + 1
    return words


def _uniform_line(lo: int, hi: int) -> _WordGen:
    """Words of ``randint(lo, hi) & _MASK32``: ``lo + randbelow(n)``,
    inlined, with ``n`` and ``k = n.bit_length()`` fixed per class."""
    n = hi - lo + 1
    k = n.bit_length()

    def line(rng: random.Random) -> List[int]:
        getrandbits = rng.getrandbits
        words = []
        for _ in range(WORDS_PER_LINE):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            words.append((lo + r) & _MASK32)
        return words

    return line


def _byte_text_line(rng: random.Random) -> List[int]:
    """Text-ish buffers: repeated bytes and small byte values."""
    random_ = rng.random
    getrandbits = rng.getrandbits
    words = []
    for _ in range(WORDS_PER_LINE):
        # Half repeated bytes, randrange(256); half randint(0, 127).
        n, k, scale = (256, 9, 0x01010101) if random_() < 0.5 else (128, 8, 1)
        b = getrandbits(k)
        while b >= n:
            b = getrandbits(k)
        words.append(b * scale)
    return words


def _int64_line(rng: random.Random) -> List[int]:
    """Small 64-bit integers: (zero high word, small low word) pairs."""
    getrandbits = rng.getrandbits
    words = []
    for _ in range(WORDS_PER_LINE // 2):
        low = getrandbits(12)  # randint(0, 4000)
        while low >= 4001:
            low = getrandbits(12)
        words += (0, low)
    return words


def _pointer_line(rng: random.Random) -> List[int]:
    """64-bit heap pointers: small high word, random-looking low word."""
    getrandbits = rng.getrandbits
    words = []
    for _ in range(WORDS_PER_LINE // 2):
        high = getrandbits(9)  # randint(0, 255): 8-bit sign-extendable
        while high >= 256:
            high = getrandbits(9)
        words += (high, getrandbits(32))  # low word: incompressible
    return words


def _random_line(rng: random.Random) -> List[int]:
    """Uniformly random words — incompressible."""
    return [rng.getrandbits(32) for _ in range(WORDS_PER_LINE)]


def _float_dense_line(rng: random.Random) -> List[int]:
    """Dense FP data: random mantissas, FPC finds nothing (the paper's
    'lossless compression of floating-point data remains a hard problem')."""
    return [rng.getrandbits(32) | 0x00800000 for _ in range(WORDS_PER_LINE)]


def _float_sparse_line(rng: random.Random) -> List[int]:
    """FP arrays with zero elements mixed in ('most of the benefit for
    floating-point applications comes from compressing zeros')."""
    return [
        0 if rng.random() < 0.4 else rng.getrandbits(32) | 0x00800000
        for _ in range(WORDS_PER_LINE)
    ]


VALUE_CLASSES: Dict[str, _WordGen] = {
    "zero": _zero_line,
    "near_zero": _near_zero_line,
    "tiny_int": _uniform_line(-8, 7),  # flags and enums: 4-bit sign extension
    "small_int": _uniform_line(-128, 127),  # counters: 8-bit sign-extendable
    "half_int": _uniform_line(-32768, 32767),  # 16-bit lengths and ids
    "byte_text": _byte_text_line,
    "int64": _int64_line,
    "pointer": _pointer_line,
    "random": _random_line,
    "float_dense": _float_dense_line,
    "float_sparse": _float_sparse_line,
}


class ValueModel:
    """Address -> line contents (and FPC segment count) for one workload."""

    def __init__(
        self,
        mix: Sequence[Tuple[str, float]],
        seed: int = 0,
        pool_size: int = 1024,
        scheme: str = "fpc",
        heap=None,
    ) -> None:
        if not mix:
            raise ValueError("value mix must not be empty")
        total = sum(w for _, w in mix)
        if not 0 < total < float("inf"):
            raise ValueError("value mix weights must sum to a positive finite value")
        for name, _ in mix:
            if name not in VALUE_CLASSES:
                raise ValueError(f"unknown value class: {name!r}")
        rng = random.Random(seed ^ 0x5EED)
        self.mix = tuple(mix)
        self.pool_size = pool_size
        self.scheme_name = scheme
        gens = [VALUE_CLASSES[name] for name, _ in mix]
        # random.choices(gens, cum_weights=cum)[0], inlined: the same one
        # random() draw, scaled and bisected exactly as choices does.
        cum = list(accumulate(w / total for _, w in mix))
        cum_total = cum[-1] + 0.0
        hi = len(cum) - 1
        random_ = rng.random
        self._lines: List[List[int]] = [
            gens[bisect_right(cum, random_() * cum_total, 0, hi)](rng)
            for _ in range(pool_size)
        ]
        self._segments_fn = self._build_segments_fn()
        if scheme == "fpc":
            # Batched FPC sizing: word-parallel over blocks of 64 lines
            # (repro.compression.fpc.sizes_for).
            self._segments = [
                segments_for_size(b) for b in sizes_for(self._lines)
            ]
        elif scheme == "bdi":
            # Batched BDI sizing: distinct lines classified once
            # (repro.compression.bdi.sizes_for deduplicates whole lines).
            from repro.compression.bdi import sizes_for as bdi_sizes_for

            self._segments = [
                segments_for_size(b) for b in bdi_sizes_for(self._lines)
            ]
        else:
            self._segments = [self._segments_fn(w) for w in self._lines]
        self.heap = heap
        self._heap_segments: Dict[int, int] = {}

    def _build_segments_fn(self) -> Callable[[List[int]], int]:
        """The on-demand line sizer for the active scheme (heap lines and
        the pool sizing of schemes without a batched sizer).

        Deterministic given ``scheme_name`` and the (already generated)
        line pool.
        """
        scheme = self.scheme_name
        if scheme == "fpc":
            return lambda words: segments_for_size(
                min(fpc_size_bytes(words), LINE_BYTES)
            )
        if scheme == "bdi":
            from repro.compression.bdi import compressed_size_bytes as bdi_size_bytes

            return lambda words: segments_for_size(
                min(bdi_size_bytes(words), LINE_BYTES)
            )
        from repro.compression.schemes import build_scheme

        return build_scheme(scheme, sample_lines=self._lines).segments

    def _index(self, line_addr: int) -> int:
        # Knuth multiplicative hash keeps pool selection uncorrelated with
        # set indexing (which uses low address bits).
        return (line_addr * 2654435761 >> 7) % self.pool_size

    def segments_for(self, line_addr: int) -> int:
        """Segment count (1-8) for the line at this address."""
        heap = self.heap
        if heap is not None and heap.contains(line_addr):
            segments = self._heap_segments.get(line_addr)
            if segments is None:
                segments = self._segments_fn(heap.line_words(line_addr))
                self._heap_segments[line_addr] = segments
            return segments
        return self._segments[(line_addr * 2654435761 >> 7) % self.pool_size]  # _index, inlined

    def line_words(self, line_addr: int) -> List[int]:
        heap = self.heap
        if heap is not None and heap.contains(line_addr):
            return heap.line_words(line_addr)
        return list(self._lines[self._index(line_addr)])

    def average_segments(self) -> float:
        return sum(self._segments) / len(self._segments)

    def expected_compression_ratio(self) -> float:
        """Upper-bound cache expansion if residency matched the pool mix:
        min(8 / avg_segments, 2) — 2 is the 8-tags-over-4-lines tag limit."""
        return min(8.0 / self.average_segments(), 2.0)
