"""Frequent Pattern Compression (FPC).

FPC (Alameldeen & Wood, UW-Madison TR-1500 / ISCA'04) compresses a cache
line one 32-bit word at a time.  Each word is emitted as a 3-bit prefix
plus a variable-size payload chosen from seven frequent patterns; a word
matching none is stored verbatim.  Runs of zero words (up to 7) collapse
into a single prefix + 3-bit run length.

The patterns, in matching priority order:

====== ============================== ============
prefix pattern                        payload bits
====== ============================== ============
000    zero-word run (1-7 words)      3
001    4-bit sign-extended            4
010    8-bit sign-extended            8
011    16-bit sign-extended           16
100    halfword padded with zeros     16
       (low halfword all zero)
101    two halfwords, each a          16
       sign-extended byte
110    word of repeated bytes         8
111    uncompressible word            32
====== ============================== ============

This module provides bit-exact size accounting and a round-trip check
used by the property tests; the simulator only consumes sizes (via
:mod:`repro.compression.segments`) because timing, not payload identity,
is what the paper measures.
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import lru_cache
from typing import List, NoReturn, Sequence, Tuple

PREFIX_BITS = 3
WORD_BITS = 32
WORDS_PER_LINE = 16  # 64-byte line / 4-byte words

# (name, payload_bits) indexed by prefix value.
FPC_PATTERNS: Tuple[Tuple[str, int], ...] = (
    ("zero_run", 3),
    ("sign_ext_4", 4),
    ("sign_ext_8", 8),
    ("sign_ext_16", 16),
    ("halfword_zero_padded", 16),
    ("two_sign_ext_halfwords", 16),
    ("repeated_bytes", 8),
    ("uncompressed", 32),
)

_MASK32 = 0xFFFFFFFF
_PAYLOAD_BITS: Tuple[int, ...] = tuple(bits for _, bits in FPC_PATTERNS)


def _sign_extends(value: int, bits: int) -> bool:
    """True if the 32-bit ``value`` is the sign extension of its low ``bits``."""
    low = value & ((1 << bits) - 1)
    if low & (1 << (bits - 1)):
        return value == (low | (_MASK32 & ~((1 << bits) - 1)))
    return value == low


def _prefix(word: int) -> int:
    """The FPC prefix of a 32-bit word: the one classification rule.

    Each range test is an offset compare: ``word`` is the sign extension
    of its low ``n`` bits exactly when adding ``2**(n-1)`` (mod 2**32)
    lands it below ``2**n``.
    """
    if word == 0:
        return 0
    if (word + 0x8) & _MASK32 < 0x10:
        return 1
    if (word + 0x80) & _MASK32 < 0x100:
        return 2
    if (word + 0x8000) & _MASK32 < 0x10000:
        return 3
    if word & 0xFFFF == 0:
        return 4
    if (((word >> 16) + 0x80) & 0xFFFF < 0x100
            and ((word & 0xFFFF) + 0x80) & 0xFFFF < 0x100):
        return 5
    if word == (word & 0xFF) * 0x01010101:
        return 6
    return 7


def classify_word(word: int) -> Tuple[int, int]:
    """Classify one 32-bit word; return ``(prefix, payload_bits)``.

    Zero words are reported as prefix 0 with 3 payload bits; run-length
    merging across words happens in :func:`compress_line`.
    """
    if not 0 <= word <= _MASK32:
        raise ValueError(f"word out of 32-bit range: {word:#x}")
    prefix = _prefix(word)
    return prefix, _PAYLOAD_BITS[prefix]


def _sign_extends_half(half: int) -> bool:
    """True if a 16-bit halfword is the sign extension of its low byte."""
    low = half & 0xFF
    if low & 0x80:
        return half == (low | 0xFF00)
    return half == low


def compress_line(words: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Compress a line of 32-bit words.

    Returns a list of ``(prefix, payload_bits, run_length)`` records,
    where ``run_length`` > 1 only for zero runs.  The encoded size is the
    sum of ``PREFIX_BITS + payload_bits`` over records.
    """
    if len(words) != WORDS_PER_LINE:
        raise ValueError(f"expected {WORDS_PER_LINE} words, got {len(words)}")
    records: List[Tuple[int, int, int]] = []
    i = 0
    while i < len(words):
        prefix, payload = classify_word(words[i])
        if prefix == 0:
            run = 1
            while run < 7 and i + run < len(words) and words[i + run] == 0:
                run += 1
            records.append((0, 3, run))
            i += run
        else:
            records.append((prefix, payload, 1))
            i += 1
    return records


def compressed_size_bits(words: Sequence[int]) -> int:
    """Bit-exact FPC encoded size of a 16-word line (excludes the tag)."""
    return sum(PREFIX_BITS + payload for _, payload, _ in compress_line(words))


def compressed_size_bytes(words: Sequence[int]) -> int:
    """Encoded size rounded up to whole bytes."""
    return (compressed_size_bits(words) + 7) // 8


#: Lines per :func:`sizes_for` block: 1024 words, so each lane integer
#: stays ~8 KB however large the batch.
_BLOCK_LINES = 64
#: Replacing each match with ``b"\x06"`` turns every greedy left-to-right
#: run of 1-7 zero words (cost byte 0) into one 6-bit zero-run record,
#: as :func:`compress_line` groups them.
_ZERO_RUNS = re.compile(b"\x00{1,7}")


@lru_cache(maxsize=4)
def _lanes(n: int) -> Tuple[int, ...]:
    """The lane constants for ``n`` words: each value repeated in every
    64-bit lane (a small constant times the lane-ones integer)."""
    ones = int.from_bytes((b"\x01" + bytes(7)) * n, "little")
    return tuple(c * ones for c in (
        0xFFFFFFFF00000000, _MASK32, 1 << 32, 0x8, (1 << 32) - 0x10,
        0x80, (1 << 32) - 0x100, 0x8000, (1 << 32) - 0x10000,
        0xFFFF, 0xFFFF0000, 0xFF00, 0x800000, 0xFF000000, 0xFF,
    ))


def sizes_for(lines: Sequence[Sequence[int]]) -> List[int]:
    """Batched :func:`compressed_size_bytes` over many lines.

    Bit-identical to mapping ``compressed_size_bytes`` over ``lines``
    (the property suite asserts this), but word-parallel, as the
    hardware classifies a line: each block of up to 64 lines is packed
    into one integer with one 64-bit lane per word, and :func:`_prefix`'s
    offset compares run on every lane at once.  The 32 guard bits above
    each word keep every carry inside its lane, so ``(v + 0xFFFFFFFF) &
    1 << 32`` flags the lanes where ``v`` (below ``2**32``) is non-zero.
    """
    bad = set(map(len, lines)) - {WORDS_PER_LINE}
    if bad:
        raise ValueError(f"expected {WORDS_PER_LINE} words, got {min(bad)}")
    sizes: List[int] = []
    for first in range(0, len(lines), _BLOCK_LINES):
        sizes += _block_sizes(lines[first:first + _BLOCK_LINES])
    return sizes


def _block_sizes(block: Sequence[Sequence[int]]) -> List[int]:
    """:func:`sizes_for` over at most :data:`_BLOCK_LINES` lines."""
    flat = [word for words in block for word in words]
    n = len(flat)
    (high, m32, b32, c4, k4, c8, k8, c16, k16,
     lo16, hi16, ff00, c_hi8, ff_hi, low_byte) = _lanes(n)
    try:
        packed = array("Q", flat)
    except OverflowError:  # negative, or wider than 64 bits
        _reject(flat)
    if sys.byteorder == "big":
        packed.byteswap()
    x = int.from_bytes(packed.tobytes(), "little")
    if x & high:  # wider than 32 bits
        _reject(flat)
    # Per-lane flags at bit 32, set where the word is non-zero or where
    # it fails a pattern, in _prefix's priority order.
    nonzero = (x + m32) & b32
    not_se4 = (((x + c4) & m32) + k4) & b32
    not_se8 = (((x + c8) & m32) + k8) & b32
    not_se16 = (((x + c16) & m32) + k16) & b32
    low = x & lo16
    low_half_set = (low + m32) & b32
    halves = (((low + c8) & ff00) | (((x & hi16) + c_hi8) & ff_hi))
    not_halves = (halves + m32) & b32
    not_repeated = ((((x & low_byte) * 0x01010101) ^ x) + m32) & b32
    # The sets nest (zero < 4-bit < 8-bit < 16-bit sign extension, and
    # 8-bit sign extension is also two sign-extended halfwords), and a
    # repeated-byte word matches an earlier pattern only as 0 or
    # 0xFFFFFFFF (both 4-bit), so the first match's prefix + payload
    # bits are a sum: 7 for any non-zero word, +4 past 4 bits, +8 past
    # 8 bits unless repeated, +16 past all three 19-bit patterns unless
    # repeated.  Zero words cost 0 here; their runs are priced below.
    past_19 = not_se16 & low_half_set & not_halves & not_repeated
    costs = (
        nonzero * 7 + (not_se4 << 2) + ((not_se8 & not_repeated) << 3) + (past_19 << 4)
    ).to_bytes(8 * n, "little")[4::8]
    # 0xFF between lines keeps every zero run inside its line.
    line_costs = _ZERO_RUNS.sub(b"\x06", b"\xff".join(
        [costs[i:i + WORDS_PER_LINE] for i in range(0, n, WORDS_PER_LINE)]
    )).split(b"\xff")
    return [(bits + 7) // 8 for bits in map(sum, line_costs)]


def _reject(words: Sequence[int]) -> NoReturn:
    """Raise :func:`classify_word`'s error for the first non-32-bit word."""
    bad = next(word for word in words if not 0 <= word <= _MASK32)
    raise ValueError(f"word out of 32-bit range: {bad:#x}") from None


def decompress_check(words: Sequence[int]) -> bool:
    """Verify the encoding is invertible: re-expand the records and check
    that word classes and zero runs reconstruct the original word count
    and that every classified pattern actually regenerates its word.

    FPC is trivially lossless (each record either stores the word verbatim
    or stores enough bits to rebuild it); this check guards our *encoder*
    against misclassification, e.g. claiming sign-extension for a word the
    payload cannot rebuild.
    """
    total = 0
    for prefix, payload, run in compress_line(words):
        if prefix == 0:
            total += run
            continue
        word = words[total]
        if not _pattern_rebuilds(prefix, word):
            return False
        total += 1
    return total == WORDS_PER_LINE


def _pattern_rebuilds(prefix: int, word: int) -> bool:
    if prefix == 1:
        return _sign_extends(word, 4)
    if prefix == 2:
        return _sign_extends(word, 8)
    if prefix == 3:
        return _sign_extends(word, 16)
    if prefix == 4:
        return word & 0xFFFF == 0
    if prefix == 5:
        return _sign_extends_half(word >> 16) and _sign_extends_half(word & 0xFFFF)
    if prefix == 6:
        return word == (word & 0xFF) * 0x01010101
    return True  # uncompressed always rebuilds


# ----------------------------------------------------------------------
# bit-level codec
#
# The simulator itself only consumes sizes, but the verification
# subsystem (repro.verify.fpc_ref) compares this encoder bit-for-bit
# against an independently written reference codec, so the payload
# construction is public API rather than an implementation detail.
# ----------------------------------------------------------------------


def payload_for(prefix: int, word: int) -> int:
    """The payload bits stored for ``word`` under pattern ``prefix``.

    Not defined for prefix 0 (zero runs store the run length instead);
    callers handle runs at the line level.
    """
    if prefix == 1:
        return word & 0xF
    if prefix == 2:
        return word & 0xFF
    if prefix == 3:
        return word & 0xFFFF
    if prefix == 4:
        return word >> 16
    if prefix == 5:
        return ((word >> 16) & 0xFF) << 8 | (word & 0xFF)
    if prefix == 6:
        return word & 0xFF
    if prefix == 7:
        return word
    raise ValueError(f"no per-word payload for prefix {prefix}")


def word_from_payload(prefix: int, payload: int) -> int:
    """Rebuild a 32-bit word from its pattern prefix and payload."""
    if prefix == 1:
        return _extend(payload, 4, 32)
    if prefix == 2:
        return _extend(payload, 8, 32)
    if prefix == 3:
        return _extend(payload, 16, 32)
    if prefix == 4:
        return (payload & 0xFFFF) << 16
    if prefix == 5:
        return (_extend(payload >> 8 & 0xFF, 8, 16) << 16) | _extend(payload & 0xFF, 8, 16)
    if prefix == 6:
        return (payload & 0xFF) * 0x01010101
    if prefix == 7:
        return payload & _MASK32
    raise ValueError(f"no per-word payload for prefix {prefix}")


def _extend(value: int, bits: int, width: int) -> int:
    """Sign-extend the low ``bits`` of ``value`` to ``width`` bits."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value |= ((1 << width) - 1) & ~((1 << bits) - 1)
    return value


def encode_line(words: Sequence[int]) -> Tuple[int, int]:
    """Encode a 16-word line into an FPC bitstream.

    Returns ``(bits, nbits)``: the stream as an integer with the first
    emitted bit most significant.  ``nbits`` always equals
    :func:`compressed_size_bits`.
    """
    bits = 0
    nbits = 0
    i = 0
    for prefix, payload_bits, run in compress_line(words):
        payload = run if prefix == 0 else payload_for(prefix, words[i])
        bits = (bits << PREFIX_BITS) | prefix
        bits = (bits << payload_bits) | payload
        nbits += PREFIX_BITS + payload_bits
        i += run
    return bits, nbits


def decode_line(bits: int, nbits: int) -> List[int]:
    """Decode an FPC bitstream back into 16 words (inverse of
    :func:`encode_line`)."""
    words: List[int] = []
    pos = nbits
    while pos > 0:
        pos -= PREFIX_BITS
        prefix = bits >> pos & (1 << PREFIX_BITS) - 1
        payload_bits = FPC_PATTERNS[prefix][1]
        pos -= payload_bits
        if pos < 0:
            raise ValueError("truncated FPC stream")
        payload = bits >> pos & (1 << payload_bits) - 1
        if prefix == 0:
            if not 1 <= payload <= 7:
                raise ValueError(f"bad zero-run length {payload}")
            words.extend([0] * payload)
        else:
            words.append(word_from_payload(prefix, payload))
    if len(words) != WORDS_PER_LINE:
        raise ValueError(f"stream decoded to {len(words)} words, expected {WORDS_PER_LINE}")
    return words


def line_from_bytes(data: bytes) -> List[int]:
    """Split a 64-byte line into 16 big-endian 32-bit words."""
    if len(data) != WORDS_PER_LINE * 4:
        raise ValueError(f"expected {WORDS_PER_LINE * 4} bytes, got {len(data)}")
    return [int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)]
