"""Tests for the alternative compression schemes."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.fpc import WORDS_PER_LINE
from repro.compression.schemes import (
    SCHEME_NAMES,
    CompressionScheme,
    FrequentValueTable,
    build_scheme,
    compare_schemes,
    fpc_size,
    selective_size,
    zero_only_size,
)
from repro.params import LINE_BYTES
from repro.workloads.values import VALUE_CLASSES


ZERO_LINE = [0] * WORDS_PER_LINE
RANDOM_LINE = [0x9ABCDEF1 + i for i in range(WORDS_PER_LINE)]
SMALL_LINE = [i - 8 & 0xFFFFFFFF for i in range(WORDS_PER_LINE)]


class TestZeroOnly:
    def test_zero_line_tiny(self):
        assert zero_only_size(ZERO_LINE) == 3  # ceil(3*6/8)

    def test_random_line_verbatim_plus_prefix(self):
        assert zero_only_size(RANDOM_LINE) == (WORDS_PER_LINE * 35 + 7) // 8

    def test_never_beats_fpc(self):
        rng = random.Random(0)
        for name, gen in VALUE_CLASSES.items():
            for _ in range(10):
                words = gen(rng)
                assert zero_only_size(words) >= fpc_size(words), name


class TestSelective:
    def test_keeps_good_encodings(self):
        assert selective_size(ZERO_LINE) == fpc_size(ZERO_LINE)

    def test_rejects_marginal_encodings(self):
        # A line FPC shrinks to just over half stays uncompressed.
        rng = random.Random(1)
        found = False
        for _ in range(200):
            words = VALUE_CLASSES["pointer"](rng)
            size = fpc_size(words)
            if LINE_BYTES // 2 < size < LINE_BYTES:
                assert selective_size(words) == LINE_BYTES
                found = True
        assert found

    def test_segments_binary(self):
        scheme = build_scheme("selective")
        rng = random.Random(2)
        for name, gen in VALUE_CLASSES.items():
            segs = scheme.segments(gen(rng))
            assert segs <= 4 or segs == 8, (name, segs)


class TestFVC:
    def test_table_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FrequentValueTable(entries=6)

    def test_trained_values_hit(self):
        table = FrequentValueTable(entries=4)
        table.train([[7] * WORDS_PER_LINE, [7] * WORDS_PER_LINE])
        assert 7 in table
        assert 123456 not in table

    def test_frequent_line_compresses(self):
        table = FrequentValueTable(entries=4)
        table.train([[7] * WORDS_PER_LINE])
        # all hits: 16 x (1 + 2 bits) = 48 bits = 6 bytes
        assert table.encoded_size_bytes([7] * WORDS_PER_LINE) == 6

    def test_miss_line_expands_slightly(self):
        table = FrequentValueTable(entries=4)
        table.train([[7] * WORDS_PER_LINE])
        # all misses: 16 x 33 bits = 528 bits = 66 bytes (> 64!)
        assert table.encoded_size_bytes(RANDOM_LINE) == 66

    def test_expansion_capped_by_segments(self):
        scheme = build_scheme("fvc", sample_lines=[[7] * WORDS_PER_LINE])
        assert scheme.segments(RANDOM_LINE) == 8


class TestBuildScheme:
    def test_all_names_buildable(self):
        for name in SCHEME_NAMES:
            scheme = build_scheme(name, sample_lines=[ZERO_LINE])
            assert isinstance(scheme, CompressionScheme)
            assert 1 <= scheme.segments(ZERO_LINE) <= 8

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_scheme("lz77")

    def test_compare_schemes_keys(self):
        out = compare_schemes([ZERO_LINE, SMALL_LINE, RANDOM_LINE])
        assert set(out) == set(SCHEME_NAMES)
        # FPC dominates its own degenerate variants.
        assert out["fpc"] <= out["zero_only"]
        assert out["fpc"] <= out["selective"]


class TestValueModelSchemeIntegration:
    def test_scheme_changes_segments(self):
        from repro.workloads.values import ValueModel

        mix = (("small_int", 0.6), ("random", 0.4))
        fpc = ValueModel(mix, seed=0, scheme="fpc")
        zero = ValueModel(mix, seed=0, scheme="zero_only")
        assert fpc.average_segments() < zero.average_segments()

    def test_l2config_scheme_reaches_system(self):
        from repro.core.system import CMPSystem
        from repro.params import CacheConfig, L2Config, SystemConfig

        cfg = SystemConfig(
            n_cores=2,
            l1i=CacheConfig(4 * 1024, 2),
            l1d=CacheConfig(4 * 1024, 2),
            l2=L2Config(64 * 1024, n_banks=2, compressed=True, scheme="zero_only"),
        )
        system = CMPSystem(cfg, "oltp", seed=0)
        assert system.values.scheme_name == "zero_only"


@settings(max_examples=40)
@given(
    st.lists(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        min_size=WORDS_PER_LINE,
        max_size=WORDS_PER_LINE,
    )
)
def test_property_scheme_size_ordering(words):
    """FPC (the superset pattern encoder) never loses to zeros-only, and
    selective is FPC-or-verbatim."""
    assert fpc_size(words) <= zero_only_size(words)
    assert selective_size(words) in (fpc_size(words), LINE_BYTES)
