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
from itertools import accumulate
from typing import Callable, Dict, List, Sequence, Tuple

from repro.compression.fpc import WORDS_PER_LINE, sizes_for
from repro.compression.fpc import compressed_size_bytes as fpc_size_bytes
from repro.compression.segments import segments_for_size
from repro.params import LINE_BYTES

_WordGen = Callable[[random.Random], List[int]]
_MASK32 = 0xFFFFFFFF


def _zero_line(rng: random.Random) -> List[int]:
    """Zero-initialised / sparse data — FPC's best case."""
    return [0] * WORDS_PER_LINE


def _near_zero_line(rng: random.Random) -> List[int]:
    """Mostly zero with a couple of small values (sparse structs)."""
    words = [0] * WORDS_PER_LINE
    for _ in range(rng.randint(1, 3)):
        words[rng.randrange(WORDS_PER_LINE)] = rng.randint(1, 100)
    return words


def _tiny_int_line(rng: random.Random) -> List[int]:
    """Flags and enums: values fitting 4-bit sign extension."""
    return [rng.randint(-8, 7) & _MASK32 for _ in range(WORDS_PER_LINE)]


def _small_int_line(rng: random.Random) -> List[int]:
    """Counters and small quantities: 8-bit sign-extendable words."""
    return [rng.randint(-128, 127) & _MASK32 for _ in range(WORDS_PER_LINE)]


def _half_int_line(rng: random.Random) -> List[int]:
    """16-bit quantities (lengths, ids)."""
    return [rng.randint(-32768, 32767) & _MASK32 for _ in range(WORDS_PER_LINE)]


def _byte_text_line(rng: random.Random) -> List[int]:
    """Text-ish buffers: repeated bytes and small byte values."""
    words = []
    for _ in range(WORDS_PER_LINE):
        if rng.random() < 0.5:
            b = rng.randrange(256)
            words.append(b * 0x01010101)
        else:
            words.append(rng.randint(0, 127))
    return words


def _int64_line(rng: random.Random) -> List[int]:
    """Small 64-bit integers: (zero high word, small low word) pairs."""
    words = []
    for _ in range(WORDS_PER_LINE // 2):
        words.append(0)
        words.append(rng.randint(0, 4000))
    return words


def _pointer_line(rng: random.Random) -> List[int]:
    """64-bit heap pointers: small high word, random-looking low word."""
    words = []
    for _ in range(WORDS_PER_LINE // 2):
        words.append(rng.randint(0, 255))  # high word: 8-bit sign-extendable
        words.append(rng.getrandbits(32))  # low word: incompressible
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
    "tiny_int": _tiny_int_line,
    "small_int": _small_int_line,
    "half_int": _half_int_line,
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
        if total <= 0:
            raise ValueError("value mix weights must sum to a positive value")
        for name, _ in mix:
            if name not in VALUE_CLASSES:
                raise ValueError(f"unknown value class: {name!r}")
        rng = random.Random(seed ^ 0x5EED)
        self.mix = tuple(mix)
        self.pool_size = pool_size
        self.scheme_name = scheme
        self._lines: List[List[int]] = []
        classes = [name for name, _ in mix]
        # Cumulative, as random.choices would build them on every draw.
        cum_weights = list(accumulate(w / total for _, w in mix))
        for _ in range(pool_size):
            name = rng.choices(classes, cum_weights=cum_weights)[0]
            self._lines.append(VALUE_CLASSES[name](rng))
        if scheme == "fpc":
            # Batched FPC sizing: one pass over the pool with per-word
            # classification memoised (repro.compression.fpc.sizes_for).
            self._segments = [
                segments_for_size(b) for b in sizes_for(self._lines)
            ]
            self._segments_fn = lambda words: segments_for_size(
                min(fpc_size_bytes(words), LINE_BYTES)
            )
        elif scheme == "bdi":
            # Batched BDI sizing: distinct lines classified once
            # (repro.compression.bdi.sizes_for deduplicates whole lines).
            from repro.compression.bdi import sizes_for as bdi_sizes_for
            from repro.compression.bdi import compressed_size_bytes as bdi_size_bytes

            self._segments = [
                segments_for_size(b) for b in bdi_sizes_for(self._lines)
            ]
            self._segments_fn = lambda words: segments_for_size(
                min(bdi_size_bytes(words), LINE_BYTES)
            )
        else:
            from repro.compression.schemes import build_scheme

            built = build_scheme(scheme, sample_lines=self._lines)
            self._segments = [built.segments(w) for w in self._lines]
            self._segments_fn = built.segments
        self.heap = heap
        self._heap_segments: Dict[int, int] = {}

    def _build_segments_fn(self) -> Callable[[List[int]], int]:
        """The on-demand line sizer for the active scheme.

        Deterministic given ``scheme_name`` and the (already generated)
        line pool, so a pickled model rebuilds an identical function —
        the sizer itself is a local closure and cannot be pickled.
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

    def __getstate__(self) -> Dict:
        # The segment sizer closes over scheme helpers; drop it and
        # rebuild on restore (simulator snapshots pickle this model).
        state = self.__dict__.copy()
        state["_segments_fn"] = None
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._segments_fn = self._build_segments_fn()

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
