"""Alternative cache-line compression schemes, for baseline comparisons.

The paper builds on FPC, but its related-work section names several
competing schemes.  Implementing them lets the benches answer "how much
of the result is FPC-specific?":

* **FPC** — the paper's scheme (:mod:`repro.compression.fpc`).
* **FVC** (Yang, Zhang & Gupta, MICRO'00) — *Frequent Value
  Compression*: a small table of frequently-occurring 32-bit values;
  words matching a table entry are encoded by their index, others stored
  verbatim with a flag bit.
* **Selective** (Lee, Hong & Kim, ICCD'99) — compress a line (with FPC
  here) only if it shrinks to at most half its size, else store it
  verbatim; this halves the compression-tag space at the cost of
  intermediate ratios.
* **BDI** (Pekhimenko et al., PACT'12) — *Base-Delta-Immediate*: the
  line as one explicit base plus narrow per-chunk deltas, with an
  implicit zero base for small immediates
  (:mod:`repro.compression.bdi`).
* **ZeroOnly** — a degenerate scheme that only collapses zero words,
  isolating how much of FPC's benefit comes from zeros (the paper notes
  this dominates for floating-point data).

Every scheme maps 16 words -> encoded byte size; segment counts come
from :func:`repro.compression.segments.segments_for_size`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, Sequence

from repro.compression.fpc import PREFIX_BITS, compressed_size_bytes
from repro.compression.segments import segments_for_size
from repro.params import LINE_BYTES


def fpc_size(words: Sequence[int]) -> int:
    """The paper's FPC encoded size in bytes."""
    return compressed_size_bytes(words)


def zero_only_size(words: Sequence[int]) -> int:
    """Zero-run-only encoding: 6 bits per zero run (<=7), 35 per other word."""
    bits = 0
    i = 0
    while i < len(words):
        if words[i] == 0:
            run = 1
            while run < 7 and i + run < len(words) and words[i + run] == 0:
                run += 1
            bits += PREFIX_BITS + 3
            i += run
        else:
            bits += PREFIX_BITS + 32
            i += 1
    return (bits + 7) // 8


class FrequentValueTable:
    """The FVC dictionary: the most frequent 32-bit values of a sample.

    Hardware builds this adaptively; for trace analysis we train it on a
    sample of lines (the common evaluation methodology).
    """

    def __init__(self, entries: int = 8) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("FVC table size must be a positive power of two")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self._values: Dict[int, int] = {}

    def train(self, lines: Iterable[Sequence[int]]) -> None:
        counts: Counter = Counter()
        for words in lines:
            counts.update(words)
        self._values = {
            value: idx for idx, (value, _) in enumerate(counts.most_common(self.entries))
        }

    def __contains__(self, word: int) -> bool:
        return word in self._values

    def encoded_size_bytes(self, words: Sequence[int]) -> int:
        """1 flag bit per word + index bits for hits, 32 bits for misses."""
        bits = 0
        for w in words:
            bits += 1 + (self.index_bits if w in self._values else 32)
        return (bits + 7) // 8


def selective_size(words: Sequence[int]) -> int:
    """Lee et al.: keep the FPC encoding only if it is <= half a line."""
    size = fpc_size(words)
    return size if size <= LINE_BYTES // 2 else LINE_BYTES


class CompressionScheme:
    """A named line-size function plus its segment mapping."""

    def __init__(self, name: str, size_fn: Callable[[Sequence[int]], int]) -> None:
        self.name = name
        self._size_fn = size_fn

    def size_bytes(self, words: Sequence[int]) -> int:
        size = self._size_fn(words)
        if size <= 0:
            raise ValueError(f"scheme {self.name} produced non-positive size")
        return size

    def segments(self, words: Sequence[int]) -> int:
        return segments_for_size(min(self.size_bytes(words), LINE_BYTES))


def build_scheme(name: str, sample_lines: Sequence[Sequence[int]] = ()) -> CompressionScheme:
    """Construct a scheme by name; FVC trains on ``sample_lines``."""
    if name == "fpc":
        return CompressionScheme("fpc", fpc_size)
    if name == "zero_only":
        return CompressionScheme("zero_only", zero_only_size)
    if name == "selective":
        return CompressionScheme("selective", selective_size)
    if name == "fvc":
        table = FrequentValueTable()
        table.train(sample_lines)
        return CompressionScheme("fvc", table.encoded_size_bytes)
    if name == "bdi":
        from repro.compression.bdi import bdi_size

        return CompressionScheme("bdi", bdi_size)
    raise ValueError(f"unknown compression scheme {name!r}; "
                     f"choose from bdi, fpc, fvc, selective, zero_only")


SCHEME_NAMES = ("fpc", "bdi", "fvc", "selective", "zero_only")


def compare_schemes(lines: Sequence[Sequence[int]]) -> Dict[str, float]:
    """Average segments/line for every scheme over a line sample."""
    out: Dict[str, float] = {}
    for name in SCHEME_NAMES:
        scheme = build_scheme(name, sample_lines=lines)
        out[name] = sum(scheme.segments(w) for w in lines) / len(lines)
    return out
