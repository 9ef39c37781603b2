"""Tests for the differential functional oracle (repro.verify.oracle)
and the bugs it has already caught (pinned as regressions)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.experiment import make_config
from repro.core.system import CMPSystem
from repro.obs.audit import audit_hierarchy
from repro.prefetch.adaptive import AdaptiveController
from repro.verify.oracle import ReferenceHierarchy, verify_system
from repro.verify.tap import OpTap
from repro.workloads.base import LOAD, STORE

SMALL = dict(n_cores=4, scale=8, bandwidth_gbs=20.0)
EVENTS = 800

#: ``base_key+feature+...`` variants: each feature switches on one
#: guarded branch of the hierarchy's demand-miss path.
FEATURES = {
    "mshr": lambda c: replace(c, memory=replace(c.memory, mshr_entries=4)),
    "wb": lambda c: replace(c, memory=replace(c.memory, writeback_buffer=2)),
    "plru": lambda c: replace(
        c,
        l1i=replace(c.l1i, replacement="plru"),
        l1d=replace(c.l1d, replacement="plru"),
        l2=replace(c.l2, replacement="plru"),
    ),
    "stream_buffer": lambda c: replace(
        c, prefetch=replace(c.prefetch, placement="stream_buffer")
    ),
    "noc": lambda c: replace(c, onchip_bandwidth_gbs=320.0),
    "row_buffer": lambda c: replace(c, memory=replace(c.memory, row_buffer=True)),
    "adaptive_policy": lambda c: replace(c, l2=replace(c.l2, adaptive_compression=True)),
    "attribution": lambda c: replace(c, attribution=True),
}


def _config(key: str):
    base_key, *features = key.split("+")
    config = make_config(base_key, **SMALL)
    for feature in features:
        config = FEATURES[feature](config)
    return config


def _verify(workload: str, key: str, **overrides):
    system = CMPSystem(_config(key), workload, seed=overrides.pop("seed", 0))
    return verify_system(system, EVENTS, warmup_events=EVENTS, config_name=key)


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "workload,key",
        [
            ("zeus", "base"),
            ("oltp", "pref"),
            ("oltp", "pref_compr"),
            ("jbb", "adaptive_compr"),
            ("art", "compr"),
            ("apache", "pref_compr+mshr+wb+plru"),
            ("apache", "pref+stream_buffer"),
            ("art", "pref_compr+noc+row_buffer"),
            ("zeus", "pref_compr+adaptive_policy"),
            ("oltp", "pref_compr+attribution"),
        ],
    )
    def test_exact_agreement(self, workload, key):
        _result, problems = _verify(workload, key)
        assert problems == []

    def test_detects_tampered_counter(self):
        config = make_config("pref_compr", **SMALL)
        system = CMPSystem(config, "oltp", seed=0)
        tap = OpTap(system.hierarchy)
        tap.install()
        try:
            system.run(EVENTS, warmup_events=EVENTS, config_name="pref_compr")
        finally:
            tap.uninstall()
        system.hierarchy.l1d_stats.demand_hits += 1  # simulate an accounting bug
        ref = ReferenceHierarchy(system.config, system.values)
        ref.replay(tap.ops)
        problems = ref.compare(system.hierarchy)
        assert any("demand_hits" in p for p in problems)

    def test_verify_system_raises(self):
        config = make_config("base", **SMALL)
        system = CMPSystem(config, "zeus", seed=0)
        tap = OpTap(system.hierarchy)
        tap.install()
        try:
            system.run(400, warmup_events=400, config_name="base")
        finally:
            tap.uninstall()
        system.hierarchy.l2_stats.writebacks += 3
        ref = ReferenceHierarchy(system.config, system.values)
        ref.replay(tap.ops)
        assert ref.compare(system.hierarchy)  # non-empty problem list


class TestOpTap:
    def test_records_demand_and_reset(self):
        config = make_config("base", **SMALL)
        system = CMPSystem(config, "zeus", seed=0)
        with OpTap(system.hierarchy) as tap:
            system.run(200, warmup_events=100, config_name="base")
        kinds = {op[0] for op in tap.ops}
        assert "D" in kinds and "RESET" in kinds
        demand = sum(1 for op in tap.ops if op[0] == "D")
        assert demand == (200 + 100) * config.n_cores

    def test_uninstall_restores_methods(self):
        config = make_config("base", **SMALL)
        system = CMPSystem(config, "zeus", seed=0)
        tap = OpTap(system.hierarchy).install()
        tap.uninstall()
        assert "access" not in vars(system.hierarchy)
        assert len(tap.ops) == 0


class TestDegreeZeroThrottleRegression:
    """Pinned: the adaptive controller's trickle/probe bumps raised a
    configured startup degree of 0 to 1, issuing prefetches from an
    "off" prefetcher and driving the ``throttled`` counter negative
    (caught by fuzz seeds 2/5/8 via the negative-counter audit)."""

    def test_zero_degree_stays_zero_with_live_counter(self):
        ctl = AdaptiveController(16, enabled=True)
        ctl.counter = 8
        assert ctl.startup_count(0) == 0

    def test_zero_degree_never_probes(self):
        ctl = AdaptiveController(16, enabled=True)
        ctl.counter = 0
        assert all(ctl.startup_count(0) == 0 for _ in range(4 * ctl.PROBE_INTERVAL))

    def test_throttled_never_negative_at_degree_zero(self):
        from dataclasses import replace

        config = make_config("adaptive", **SMALL)
        config = replace(
            config, prefetch=replace(config.prefetch, l1_startup=0, l2_startup=0)
        )
        system = CMPSystem(config, "jbb", seed=0)
        system.run(600, warmup_events=600, config_name="adaptive")
        for stats in system.hierarchy.pf_stats.values():
            assert stats.throttled >= 0
            assert stats.issued == 0


class _BurstPrefetcher:
    """Delegating stub that returns a fixed prefetch burst on one hook —
    StridePrefetcher uses __slots__, so tests swap the object instead of
    monkeypatching a method."""

    def __init__(self, inner, addrs, on: str) -> None:
        self._inner = inner
        self._addrs = list(addrs)
        self._on = on

    def observe_miss(self, addr):
        return list(self._addrs) if self._on == "miss" else []

    def observe_hit(self, addr):
        return list(self._addrs) if self._on == "hit" else []

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestInclusionGuardRegression:
    """Pinned: an L2 prefetch burst triggered *inside* a demand miss's
    _l2_access could evict the demand line from the L2 before the L1
    fill ran, leaving a valid L1 line with no L2 backing (caught by
    fuzz seeds 18/22/23 via the inclusion audit)."""

    def _tiny_system(self):
        from dataclasses import replace

        from repro.params import CacheConfig, L2Config, PrefetchConfig, SystemConfig

        config = SystemConfig(
            n_cores=1,
            l1i=CacheConfig(4 * 64, 1),
            l1d=CacheConfig(4 * 64, 1),
            # One set, two ways: trivially overflowed by a prefetch burst.
            l2=L2Config(size_bytes=2 * 64, n_banks=1, tags_per_set=2, uncompressed_assoc=2),
            prefetch=PrefetchConfig(enabled=True),
        )
        return CMPSystem(replace(config), "zeus", seed=0)

    def test_demand_fill_skipped_when_l2_evicts_line(self):
        system = self._tiny_system()
        h = system.hierarchy
        addr = 0x1000
        # The L2 has one set; these conflict with addr by construction
        # and the burst evicts it before the L1 insert runs.
        h.pf_l2[0] = _BurstPrefetcher(h.pf_l2[0], [addr + 2, addr + 4, addr + 6], "miss")
        h.access(0, LOAD, addr, 0.0)
        l1e = h.l1d[0].probe(addr)
        assert l1e is None or not l1e.valid  # fill skipped, not stale
        assert h.l2.probe(addr) is None or not h.l2.probe(addr).valid
        assert audit_hierarchy(h) == []

    def test_store_miss_variant(self):
        system = self._tiny_system()
        h = system.hierarchy
        addr = 0x2000
        h.pf_l2[0] = _BurstPrefetcher(h.pf_l2[0], [addr + 2, addr + 4, addr + 6], "miss")
        h.access(0, STORE, addr, 0.0)
        assert audit_hierarchy(h) == []


class TestStoreHitAliasRegression:
    """Pinned: on a store *hit*, a prefetch issued by the observe_hit
    loop could back-invalidate the very line being stored to (its L2
    copy got evicted); the store path then wrote MODIFIED/dirty through
    the stale — possibly reused — tag frame, corrupting another line."""

    def test_store_through_invalidated_line(self):
        from dataclasses import replace

        from repro.params import CacheConfig, L2Config, PrefetchConfig, SystemConfig

        config = SystemConfig(
            n_cores=1,
            l1i=CacheConfig(4 * 64, 1),
            l1d=CacheConfig(2 * 64, 2),  # one set, two ways
            l2=L2Config(size_bytes=2 * 64, n_banks=1, tags_per_set=2, uncompressed_assoc=2),
            prefetch=PrefetchConfig(enabled=True),
        )
        system = CMPSystem(replace(config), "zeus", seed=0)
        h = system.hierarchy
        addr = 0x3000
        h.access(0, LOAD, addr, 0.0)  # line resident SHARED in L1D + L2
        upgrades_before = h.l1d_stats.upgrades
        # On the next (store) hit, burst L1 prefetches into addr's set so
        # the L2 evicts addr and back-invalidates the L1D copy mid-access.
        h.pf_l1d[0] = _BurstPrefetcher(h.pf_l1d[0], [addr + 2, addr + 4, addr + 6], "hit")
        h._rebuild_routes()
        h.access(0, STORE, addr, 10.0)
        # The store must not have written through the invalidated frame:
        # no upgrade counted for a line that is gone, and no frame left
        # dirty+MODIFIED for an address that was never stored to.
        assert h.l1d_stats.upgrades == upgrades_before
        for frame in h.l1d[0]._map.values():
            if frame.valid and frame.addr != addr:
                assert not (frame.dirty and frame.addr in (addr + 2, addr + 4, addr + 6))
        assert audit_hierarchy(h) == []
