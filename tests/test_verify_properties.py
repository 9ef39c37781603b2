"""Tests for the metamorphic property suite (repro.verify.properties)."""

from __future__ import annotations

import pytest

from repro.core.experiment import make_config
from repro.report.export import diff_full_dicts
from repro.verify.properties import (
    ALL_PROPERTIES,
    PropertyViolation,
    check_bandwidth_monotonicity,
    check_compression_noop,
    check_degree_zero,
    check_determinism,
    check_reset_conservation,
    counter_snapshot,
)

SMALL = dict(n_cores=2, scale=16, bandwidth_gbs=20.0)
EVENTS = 500


class TestDiffFullDicts:
    def test_equal_dicts(self):
        a = {"x": {"y": 1, "z": [1, 2]}}
        assert diff_full_dicts(a, {"x": {"y": 1, "z": [1, 2]}}) == []

    def test_reports_dotted_path(self):
        a = {"l2": {"demand_hits": 10}}
        b = {"l2": {"demand_hits": 11}}
        assert diff_full_dicts(a, b) == [("l2.demand_hits", 10, 11)]

    def test_ignore_paths(self):
        a = {"l2": {"demand_hits": 10, "compressed_hits": 5}}
        b = {"l2": {"demand_hits": 10, "compressed_hits": 0}}
        assert diff_full_dicts(a, b, ignore=("l2.compressed_hits",)) == []

    def test_missing_keys_differ(self):
        assert diff_full_dicts({"a": 1}, {}) == [("a", 1, None)]


class TestCompressionNoop:
    @pytest.mark.parametrize("key", ["base", "pref", "pref_compr"])
    def test_holds(self, key):
        check_compression_noop(make_config(key, **SMALL), "oltp", events=EVENTS)

    def test_holds_on_scientific(self):
        check_compression_noop(make_config("compr", **SMALL), "art", events=EVENTS)


class TestDegreeZero:
    @pytest.mark.parametrize("key", ["base", "compr"])
    def test_holds(self, key):
        check_degree_zero(make_config(key, **SMALL), "jbb", events=EVENTS)


class TestResetConservation:
    @pytest.mark.parametrize("key", ["base", "pref_compr", "adaptive_compr"])
    def test_holds(self, key):
        check_reset_conservation(
            make_config(key, **SMALL), "apache", warmup=400, events=EVENTS
        )

    def test_snapshot_covers_cache_and_link(self):
        from repro.core.system import CMPSystem

        system = CMPSystem(make_config("pref_compr", **SMALL), "oltp", seed=0)
        system._run_events(200)
        snap = counter_snapshot(system)
        assert "l2.demand_misses" in snap
        assert "link.bytes_total" in snap
        assert "prefetch.l2.issued" in snap
        assert any(k.startswith("core.0.") for k in snap)


class TestBandwidthMonotonicity:
    def test_exact_without_prefetching(self):
        check_bandwidth_monotonicity(
            make_config("base", **SMALL), "oltp", events=EVENTS, tolerance=0.0
        )

    def test_auto_tolerance_with_prefetching(self):
        check_bandwidth_monotonicity(
            make_config("pref_compr", **SMALL), "jbb", events=EVENTS
        )

    def test_rejects_infinite_base(self):
        cfg = make_config("base", n_cores=2, scale=16, infinite_bandwidth=True)
        with pytest.raises(ValueError):
            check_bandwidth_monotonicity(cfg, "oltp", events=100)


class TestDeterminism:
    def test_holds(self):
        check_determinism(make_config("adaptive_compr", **SMALL), "zeus", events=EVENTS)


class TestRegistry:
    def test_all_properties_listed(self):
        assert set(ALL_PROPERTIES) == {
            "compression_noop",
            "degree_zero",
            "reset_conservation",
            "bandwidth_monotonicity",
            "determinism",
            "attribution_noop",
        }

    def test_violation_is_assertion_error(self):
        assert issubclass(PropertyViolation, AssertionError)
