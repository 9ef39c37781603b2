"""Unit and property tests for Frequent Pattern Compression."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from repro.compression import fpc
from repro.compression.fpc import (
    FPC_PATTERNS,
    PREFIX_BITS,
    WORDS_PER_LINE,
    classify_word,
    compress_line,
    compressed_size_bits,
    compressed_size_bytes,
    decompress_check,
    line_from_bytes,
    sizes_for,
)
from repro.workloads import WORKLOADS, get_spec
from repro.workloads.values import ValueModel


class TestClassifyWord:
    def test_zero(self):
        assert classify_word(0) == (0, 3)

    def test_4bit_positive(self):
        assert classify_word(7) == (1, 4)

    def test_4bit_negative(self):
        assert classify_word(0xFFFFFFF8) == (1, 4)  # -8 sign-extended

    def test_8bit_positive(self):
        assert classify_word(100) == (2, 8)

    def test_8bit_negative(self):
        assert classify_word(0xFFFFFF80) == (2, 8)  # -128

    def test_16bit_positive(self):
        assert classify_word(30000) == (3, 16)

    def test_16bit_negative(self):
        assert classify_word(0xFFFF8000) == (3, 16)  # -32768

    def test_halfword_zero_padded(self):
        assert classify_word(0xABCD0000) == (4, 16)

    def test_two_sign_extended_halfwords(self):
        # high half: sign-extended -2 (0xFFFE); low half: 0x0005
        assert classify_word(0xFFFE0005) == (5, 16)

    def test_repeated_bytes(self):
        assert classify_word(0x5A5A5A5A) == (6, 8)

    def test_uncompressible(self):
        assert classify_word(0x12345678) == (7, 32)

    def test_priority_zero_over_repeated(self):
        # 0 is all-repeated-bytes too, but zero wins.
        assert classify_word(0)[0] == 0

    def test_priority_small_over_repeated(self):
        # 0xFFFFFFFF is both 4-bit sign-extended (-1) and repeated bytes.
        assert classify_word(0xFFFFFFFF) == (1, 4)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            classify_word(1 << 32)
        with pytest.raises(ValueError):
            classify_word(-1)


def _signed(value: int, bits: int) -> int:
    return value - (1 << bits) if value >> (bits - 1) & 1 else value


#: The module docstring's patterns, each written as a plain predicate on
#: the word's value, in matching priority order.
_PATTERN_HOLDS = (
    lambda w: w == 0,
    lambda w: -8 <= _signed(w, 32) <= 7,
    lambda w: -128 <= _signed(w, 32) <= 127,
    lambda w: -32768 <= _signed(w, 32) <= 32767,
    lambda w: w % 0x10000 == 0,
    lambda w: all(-128 <= _signed(h, 16) <= 127 for h in (w >> 16, w & 0xFFFF)),
    lambda w: len(set(w.to_bytes(4, "big"))) == 1,
    lambda w: True,
)

_BOUNDARIES = (0x7, 0x8, 0x7F, 0x80, 0x7FFF, 0x8000, 0xFFFF0000, 0xFF80FF80,
               0x01010101, 0xFFFFFFFF)
#: Every word within 3 of a pattern boundary or of its negation.
EDGE_WORDS = sorted({
    (sign * b + d) & 0xFFFFFFFF
    for b in _BOUNDARIES for sign in (1, -1) for d in range(-3, 4)
})


def _docstring_payload_bits():
    """``prefix -> payload bits`` read from the module docstring's table."""
    rows = re.findall(r"^([01]{3}) .* (\d+)$", fpc.__doc__, re.MULTILINE)
    return {int(prefix, 2): int(bits) for prefix, bits in rows}


class TestEdgeWords:
    """Every word near a pattern boundary classifies as the docstring's
    table says, and batched sizing agrees with per-line sizing."""

    def test_table_matches_patterns(self):
        table = _docstring_payload_bits()
        assert table == {p: bits for p, (_, bits) in enumerate(FPC_PATTERNS)}

    def test_classify_matches_table(self):
        table = _docstring_payload_bits()
        wrong = []
        for word in EDGE_WORDS:
            prefix = next(p for p, holds in enumerate(_PATTERN_HOLDS) if holds(word))
            if classify_word(word) != (prefix, table[prefix]):
                wrong.append((hex(word), classify_word(word), prefix))
        assert wrong == []

    def test_sizes_for_matches_per_line_size(self):
        words = EDGE_WORDS
        lines = [
            [words[(start + i * step) % len(words)] for i in range(WORDS_PER_LINE)]
            for start in range(len(words)) for step in (1, 5)
        ]
        # Zero runs of every length cut across the edge words.
        lines += [
            [0 if (i + shift) % period < run else words[(i * 7 + shift) % len(words)]
             for i in range(WORDS_PER_LINE)]
            for period in (3, 8, 16) for run in range(1, period)
            for shift in range(0, len(words), 11)
        ]
        assert sizes_for(lines) == [compressed_size_bytes(line) for line in lines]


def _reference_sizes(lines):
    return [compressed_size_bytes(line) for line in lines]


#: Each pattern's boundary words, the last word in and the first word out.
PATTERN_BOUNDARIES = (
    0x7, 0x8, 0xFFFFFFF8, 0xFFFFFFF7,  # 4-bit sign extension
    0x7F, 0x80, 0xFFFFFF80, 0xFFFFFF7F,  # 8-bit
    0x7FFF, 0x8000, 0xFFFF8000, 0xFFFF7FFF,  # 16-bit
    0x00010000, 0xFFFF0000, 0x80000000, 0x00010001,  # zero low half
    0x007F007F, 0xFF80FF80, 0x007FFF80, 0xFF80007F,  # byte-sign-extended halves
    0x00800000, 0x0000FF80, 0x00FF007F,
    0x80808080, 0x01010101, 0xFEFEFEFE, 0x80808081,  # repeated bytes
    0xFFFFFFFF, 0x12345678,
)


class TestSizesFor:
    """The word-parallel batch sizer equals per-line
    :func:`compressed_size_bytes` on every line."""

    @pytest.mark.parametrize("n_lines", [0, 1, 63, 64, 65, 127, 128, 129, 1030])
    def test_batches_across_block_edges(self, n_lines):
        words = EDGE_WORDS + list(PATTERN_BOUNDARIES) + [0] * 40
        lines = [
            [words[(line * 37 + i * (line % 5 + 1)) % len(words)]
             for i in range(WORDS_PER_LINE)]
            for line in range(n_lines)
        ]
        assert sizes_for(lines) == _reference_sizes(lines)

    @pytest.mark.parametrize("word", PATTERN_BOUNDARIES, ids=hex)
    def test_pattern_boundary_words(self, word):
        lines = [
            [word] * WORDS_PER_LINE,
            [word, 0] * (WORDS_PER_LINE // 2),
            [word] + [0x12345678] * (WORDS_PER_LINE - 1),
        ]
        assert sizes_for(lines) == _reference_sizes(lines)

    def test_zero_runs_at_every_offset(self):
        lines = [
            [0 if start <= i < start + run else fill for i in range(WORDS_PER_LINE)]
            for fill in (0x12345678, 1, 0xFFFFFFFF)
            for run in range(1, WORDS_PER_LINE + 1)
            for start in range(WORDS_PER_LINE - run + 1)
        ]
        # Two runs per line as well, split by one word at every offset.
        lines += [
            [fill if i == cut else 0 for i in range(WORDS_PER_LINE)]
            for fill in (0x80, 0xABCD0000) for cut in range(WORDS_PER_LINE)
        ]
        assert sizes_for(lines) == _reference_sizes(lines)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_registry_pools(self, workload):
        for seed in range(4):
            lines = ValueModel(get_spec(workload).value_mix, seed=seed)._lines
            assert sizes_for(lines) == _reference_sizes(lines)

    @pytest.mark.parametrize("bad", [-1, 1 << 32, (1 << 32) + 5, 1 << 64, -(1 << 70)])
    def test_out_of_range_word_raises(self, bad):
        line = [0] * WORDS_PER_LINE
        line[5] = bad
        for lines in ([line], [[1] * WORDS_PER_LINE] * 70 + [line]):
            with pytest.raises(ValueError, match="out of 32-bit range"):
                sizes_for(lines)

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError, match="expected 16 words, got 15"):
            sizes_for([[0] * WORDS_PER_LINE, [0] * 15])


class TestCompressLine:
    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            compress_line([0] * 15)

    def test_all_zero_line_uses_run_records(self):
        records = compress_line([0] * WORDS_PER_LINE)
        # 16 zeros = runs of 7 + 7 + 2
        assert [r[2] for r in records] == [7, 7, 2]
        assert compressed_size_bits([0] * WORDS_PER_LINE) == 3 * (PREFIX_BITS + 3)

    def test_zero_run_capped_at_7(self):
        words = [0] * 8 + [0x12345678] * 8
        records = compress_line(words)
        assert records[0][2] == 7
        assert records[1] == (0, 3, 1)

    def test_incompressible_line_size(self):
        words = [0x9ABCDEF1] * WORDS_PER_LINE
        # repeated call: each word is uncompressed (35 bits)
        assert compressed_size_bits(words) == WORDS_PER_LINE * 35

    def test_size_bytes_rounds_up(self):
        words = [0] * WORDS_PER_LINE  # 18 bits -> 3 bytes
        assert compressed_size_bytes(words) == 3

    def test_mixed_line(self):
        words = [0, 0, 5, 0x12345678] + [1] * 12
        bits = compressed_size_bits(words)
        # run(2): 6, 4-bit: 7, uncompressed: 35, twelve 4-bit: 84
        assert bits == 6 + 7 + 35 + 12 * 7


class TestDecompressCheck:
    def test_known_patterns_roundtrip(self):
        words = [0, 7, 200, 30000, 0xDEAD0000, 0xFF01FF02, 0x77777777, 0xCAFEBABE] * 2
        assert decompress_check(words)


class TestLineFromBytes:
    def test_roundtrip_length(self):
        data = bytes(range(64))
        words = line_from_bytes(data)
        assert len(words) == WORDS_PER_LINE
        assert words[0] == 0x00010203

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            line_from_bytes(b"\x00" * 63)


word_st = st.integers(min_value=0, max_value=0xFFFFFFFF)
line_st = st.lists(word_st, min_size=WORDS_PER_LINE, max_size=WORDS_PER_LINE)


class TestFPCProperties:
    @given(line_st)
    def test_size_bounds(self, words):
        bits = compressed_size_bits(words)
        # Best case: three zero-run records; worst: 16 uncompressed words.
        assert 1 * (PREFIX_BITS + 3) <= bits <= WORDS_PER_LINE * (PREFIX_BITS + 32)

    @given(line_st)
    def test_encoder_is_invertible(self, words):
        assert decompress_check(words)

    @given(line_st)
    def test_records_cover_every_word(self, words):
        assert sum(r[2] for r in compress_line(words)) == WORDS_PER_LINE

    @given(word_st)
    def test_classification_is_deterministic(self, word):
        assert classify_word(word) == classify_word(word)

    @given(line_st)
    def test_never_worse_than_verbatim_plus_prefixes(self, words):
        # FPC's worst case is bounded: prefix overhead on every word.
        assert compressed_size_bits(words) <= WORDS_PER_LINE * 35


#: Words that exercise every pattern and its boundaries, often zero.
mixed_word_st = st.one_of(
    st.just(0), st.sampled_from(EDGE_WORDS), st.sampled_from(PATTERN_BOUNDARIES), word_st
)
mixed_line_st = st.lists(mixed_word_st, min_size=WORDS_PER_LINE, max_size=WORDS_PER_LINE)


class TestSizesForProperty:
    @given(st.lists(mixed_line_st, max_size=4), st.integers(0, 70))
    def test_batch_equals_per_line_size(self, lines, pad):
        # Padding lines in front move the drawn lines across block edges.
        lines = [[0x12345678, 0] * (WORDS_PER_LINE // 2)] * pad + lines
        assert sizes_for(lines) == _reference_sizes(lines)
