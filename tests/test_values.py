"""Tests for the data-value models driving FPC compressibility."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.segments import segments_for_line
from repro.workloads.values import VALUE_CLASSES, ValueModel


class TestValueClasses:
    def test_zero_line_is_one_segment(self):
        import random

        words = VALUE_CLASSES["zero"](random.Random(0))
        assert segments_for_line(words) == 1

    def test_float_dense_is_uncompressible(self):
        import random

        words = VALUE_CLASSES["float_dense"](random.Random(0))
        assert segments_for_line(words) == 8

    def test_class_segment_ordering(self):
        """Integer-heavy classes compress better than float-heavy ones."""
        import random

        rng = random.Random(42)

        def avg(cls):
            return sum(
                segments_for_line(VALUE_CLASSES[cls](rng)) for _ in range(50)
            ) / 50.0

        assert avg("zero") < avg("tiny_int") < avg("pointer") <= avg("random")
        assert avg("int64") < avg("float_sparse") < avg("float_dense")

    def test_every_class_produces_sixteen_words(self):
        import random

        rng = random.Random(7)
        for name, gen in VALUE_CLASSES.items():
            words = gen(rng)
            assert len(words) == 16, name
            assert all(0 <= w <= 0xFFFFFFFF for w in words), name


class TestValueModel:
    def test_deterministic_per_address(self):
        vm = ValueModel([("small_int", 1.0)], seed=3)
        assert vm.segments_for(0xABC) == vm.segments_for(0xABC)
        assert vm.line_words(0xABC) == vm.line_words(0xABC)

    def test_same_seed_same_model(self):
        a = ValueModel([("pointer", 0.5), ("zero", 0.5)], seed=9)
        b = ValueModel([("pointer", 0.5), ("zero", 0.5)], seed=9)
        assert [a.segments_for(i) for i in range(100)] == [
            b.segments_for(i) for i in range(100)
        ]

    def test_different_seeds_differ(self):
        a = ValueModel([("random", 0.5), ("zero", 0.5)], seed=1)
        b = ValueModel([("random", 0.5), ("zero", 0.5)], seed=2)
        assert [a.segments_for(i) for i in range(200)] != [
            b.segments_for(i) for i in range(200)
        ]

    def test_average_tracks_mix(self):
        compressible = ValueModel([("zero", 1.0)], seed=0)
        incompressible = ValueModel([("float_dense", 1.0)], seed=0)
        assert compressible.average_segments() == 1.0
        assert incompressible.average_segments() == 8.0

    def test_expected_ratio_capped_at_two(self):
        vm = ValueModel([("zero", 1.0)], seed=0)
        assert vm.expected_compression_ratio() == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ValueModel([], seed=0)
        with pytest.raises(ValueError):
            ValueModel([("no_such_class", 1.0)], seed=0)
        with pytest.raises(ValueError):
            ValueModel([("zero", 0.0)], seed=0)
        # random.choices refused these; the inlined draw would not.
        for weight in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                ValueModel([("zero", 1.0), ("random", weight)], seed=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**50))
def test_property_segments_always_in_range(addr):
    vm = ValueModel([("zero", 0.3), ("pointer", 0.4), ("float_dense", 0.3)], seed=5)
    assert 1 <= vm.segments_for(addr) <= 8
