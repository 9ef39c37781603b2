"""End-to-end tests for CMPSystem and the functional facade."""

from __future__ import annotations

from dataclasses import replace
from itertools import islice

import pytest

from repro.core.experiment import run_point
from repro.core.system import CMPSystem
from repro.params import CacheConfig, L2Config, SystemConfig
from repro.workloads.base import IFETCH


def small_config(**features) -> SystemConfig:
    cfg = SystemConfig(
        n_cores=2,
        l1i=CacheConfig(size_bytes=4 * 1024, assoc=2),
        l1d=CacheConfig(size_bytes=4 * 1024, assoc=2),
        l2=L2Config(size_bytes=64 * 1024, n_banks=2),
    )
    return cfg.with_features(**features) if features else cfg


class TestRun:
    def test_produces_result(self):
        r = CMPSystem(small_config(), "zeus", seed=0).run(500, warmup_events=200)
        assert r.elapsed_cycles > 0
        assert r.instructions > 0
        assert r.workload == "zeus"
        assert 0.0 < r.ipc < 2 * 2  # bounded by cores x 1/cpi

    def test_deterministic_same_seed(self):
        a = CMPSystem(small_config(), "oltp", seed=7).run(400, warmup_events=100)
        b = CMPSystem(small_config(), "oltp", seed=7).run(400, warmup_events=100)
        assert a.elapsed_cycles == b.elapsed_cycles
        assert a.l2.demand_misses == b.l2.demand_misses
        assert a.link.bytes_total == b.link.bytes_total

    def test_different_seed_differs(self):
        a = CMPSystem(small_config(), "oltp", seed=1).run(400, warmup_events=100)
        b = CMPSystem(small_config(), "oltp", seed=2).run(400, warmup_events=100)
        assert a.elapsed_cycles != b.elapsed_cycles

    def test_events_validated(self):
        with pytest.raises(ValueError):
            CMPSystem(small_config(), "zeus").run(0)

    def test_accepts_spec_object(self):
        from repro.workloads.registry import get_spec

        r = CMPSystem(small_config(), get_spec("art"), seed=0).run(300, warmup_events=100)
        assert r.workload == "art"

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            CMPSystem(small_config(), "quake")


class TestResultMetrics:
    def test_speedup_vs_self_is_one(self):
        r = CMPSystem(small_config(), "zeus", seed=0).run(300, warmup_events=100)
        assert r.speedup_vs(r) == 1.0

    def test_bandwidth_positive_when_missing(self):
        r = CMPSystem(small_config(), "fma3d", seed=0).run(400, warmup_events=100)
        assert r.bandwidth_gbs > 0

    def test_prefetcher_report_fields(self):
        cfg = small_config(prefetching=True)
        r = CMPSystem(cfg, "mgrid", seed=0).run(800, warmup_events=200)
        rep = r.prefetcher_report("l2")
        assert rep.issued > 0
        assert 0.0 <= rep.coverage <= 1.0
        assert 0.0 <= rep.accuracy <= 1.0
        assert rep.rate_per_1000 > 0

    def test_summary_renders(self):
        r = CMPSystem(small_config(), "zeus", seed=0).run(200, warmup_events=50)
        text = r.summary()
        assert "zeus" in text and "GB/s" in text

    def test_uncompressed_equiv_at_least_actual(self):
        cfg = small_config(link_compression=True)
        r = CMPSystem(cfg, "oltp", seed=0).run(400, warmup_events=100)
        assert r.uncompressed_equiv_bandwidth_gbs >= r.bandwidth_gbs


class TestFeatureEffects:
    """Cheap qualitative sanity checks on a small system."""

    def test_compression_does_not_lose_correctness(self):
        base = CMPSystem(small_config(), "oltp", seed=0).run(600, warmup_events=300)
        comp = CMPSystem(
            small_config(cache_compression=True, link_compression=True), "oltp", seed=0
        ).run(600, warmup_events=300)
        # Same trace; compression must not increase traffic.
        assert comp.link.bytes_total <= base.link.bytes_total

    def test_link_compression_reduces_bytes_not_messages(self):
        base = CMPSystem(small_config(), "zeus", seed=0).run(600, warmup_events=300)
        comp = CMPSystem(small_config(link_compression=True), "zeus", seed=0).run(
            600, warmup_events=300
        )
        assert comp.link.bytes_total < base.link.bytes_total

    def test_prefetching_reduces_demand_misses_on_strided_code(self):
        base = CMPSystem(small_config(), "mgrid", seed=0).run(1200, warmup_events=300)
        pref = CMPSystem(small_config(prefetching=True), "mgrid", seed=0).run(
            1200, warmup_events=300
        )
        assert pref.l2.demand_misses < base.l2.demand_misses


class TestSimulateFacade:
    """``run_point`` with a full config and no caching: one call, one
    simulation."""

    def test_simulate_with_explicit_config(self):
        r = run_point("zeus", small_config(), events=200, warmup=50, seed=1,
                      use_cache=False)
        assert r.workload == "zeus"
        assert r.seed == 1

    def test_config_name_override(self):
        r = run_point("zeus", small_config(), events=100, warmup=10,
                      name="mylabel", use_cache=False)
        assert r.config_name == "mylabel"


class TestRunLoop:
    """Each core runs exactly its events, and no source is drawn past them."""

    @staticmethod
    def _check(system, ran, measured):
        """Every core ran ``ran`` events since construction, ``measured``
        of them since the last stats reset, and its source's next event
        is the one an identical, unrun system's stream holds next."""
        fresh = CMPSystem(system.config, system.spec, seed=system.seed)
        for core in range(system.config.n_cores):
            stream = fresh._generators[core]
            events = list(islice(stream, ran))
            st = system.cores[core].stats
            assert st.ifetch_accesses + st.data_accesses == measured
            ifetch = sum(1 for _, kind, _ in events[ran - measured:] if kind == IFETCH)
            assert st.ifetch_accesses == ifetch
            assert next(system._generators[core]) == next(stream)

    def test_warmup_plus_measure(self):
        system = CMPSystem(small_config(prefetching=True), "oltp", seed=4)
        system.run(300, warmup_events=200)
        self._check(system, 500, 300)

    def test_repeated_slices_add_up(self):
        system = CMPSystem(replace(small_config(), n_cores=4), "zeus", seed=2)
        for k in (1, 3, 7, 64):
            system._run_events(k)
        self._check(system, 75, 75)
