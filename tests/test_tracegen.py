"""Tests for the synthetic trace generator."""

from __future__ import annotations

import itertools

import pytest

from repro.workloads.base import IFETCH, LOAD, STORE, TraceGenerator
from repro.workloads.registry import WORKLOADS, get_spec


def take(gen, n):
    return list(itertools.islice(gen.events(), n))


def make_gen(spec_name="zeus", core=0, cores=8, seed=0) -> TraceGenerator:
    return TraceGenerator(
        get_spec(spec_name), core_id=core, n_cores=cores, l2_lines=16384, l1i_lines=256, seed=seed
    )


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = take(make_gen(seed=4), 2000)
        b = take(make_gen(seed=4), 2000)
        assert a == b

    def test_different_seeds_differ(self):
        assert take(make_gen(seed=1), 2000) != take(make_gen(seed=2), 2000)

    def test_different_cores_differ(self):
        assert take(make_gen(core=0), 2000) != take(make_gen(core=1), 2000)


class TestEventShape:
    def test_kinds_are_valid(self):
        for gap, kind, addr in take(make_gen(), 3000):
            assert kind in (IFETCH, LOAD, STORE)
            assert gap >= 0
            assert addr >= 0

    def test_ifetch_gap_is_zero(self):
        for gap, kind, _ in take(make_gen(), 3000):
            if kind == IFETCH:
                assert gap == 0

    def test_mean_gap_tracks_spec(self):
        spec = get_spec("zeus")
        events = take(make_gen("zeus"), 20000)
        data = [(g, k) for g, k, _ in events if k != IFETCH]
        mean = sum(g for g, _ in data) / len(data)
        assert 0.6 * spec.instr_per_event < mean < 1.6 * spec.instr_per_event

    def test_store_fraction_approximate(self):
        spec = get_spec("oltp")
        events = take(make_gen("oltp"), 30000)
        data = [k for _, k, _ in events if k != IFETCH]
        frac = data.count(STORE) / len(data)
        assert abs(frac - spec.store_fraction) < 0.05


class TestRegions:
    def test_private_regions_disjoint_across_cores(self):
        g0, g1 = make_gen(core=0), make_gen(core=1)
        assert g0.private_base != g1.private_base
        span = max(g0.private_lines, g1.private_lines)
        assert abs(g0.private_base - g1.private_base) > span

    def test_shared_lines_sized_by_fraction(self):
        g = make_gen("oltp")
        spec = get_spec("oltp")
        total = int(spec.ws_factor * 16384)
        assert g.shared_lines == pytest.approx(total * spec.shared_fraction, rel=0.05)

    def test_instruction_addresses_shared_across_cores(self):
        """Code is shared: both cores fetch from the same region."""
        e0 = {a for _, k, a in take(make_gen(core=0), 5000) if k == IFETCH}
        e1 = {a for _, k, a in take(make_gen(core=1), 5000) if k == IFETCH}
        assert e0 & e1


class TestStreams:
    def test_strided_streams_are_detectable(self):
        """A stride-heavy workload's data trace confirms streams in the
        same filter tables the prefetcher uses (streams are interleaved,
        so raw consecutive-pair strides are rare — detection is the
        meaningful property)."""
        from repro.prefetch.filter_table import StrideDetector

        events = take(make_gen("apsi"), 6000)
        detector = StrideDetector()
        confirmed = sum(
            1
            for _, k, a in events
            if k != IFETCH and detector.observe_miss(a) is not None
        )
        assert confirmed >= 5

    def test_stream_stride_values_come_from_spec(self):
        spec = get_spec("mgrid")
        allowed = {s for s, _ in spec.stream_strides}
        g = make_gen("mgrid")
        for s in g._streams:
            assert s.stride in allowed


class TestSpecValidation:
    def test_all_registered_specs_valid(self):
        assert len(WORKLOADS) == 9  # paper's 8 + the linked-data chase
        for name, spec in WORKLOADS.items():
            assert spec.name == name

    def test_invalid_fractions_rejected(self):
        good = get_spec("zeus")
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(good, stride_fraction=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(good, stride_fraction=0.7, hot_fraction=0.5)
        with pytest.raises(ValueError):
            dataclasses.replace(good, locality=0.5)
        with pytest.raises(ValueError):
            dataclasses.replace(good, instr_per_event=0.0)
        # Stride weights random.choices would refuse: zero, infinite, NaN.
        for weight in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                dataclasses.replace(good, stream_strides=((1, weight),))

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_spec("doom3")

    def test_core_id_validated(self):
        with pytest.raises(ValueError):
            TraceGenerator(get_spec("zeus"), core_id=8, n_cores=8, l2_lines=1024, l1i_lines=64)
