"""The hierarchy invariant checker (:func:`repro.obs.audit.audit_hierarchy`)
after stress runs and against deliberately corrupted state."""

from __future__ import annotations

import random

import pytest

from repro.core.system import CMPSystem
from repro.obs.audit import AuditViolation, audit_hierarchy
from repro.params import CacheConfig, L2Config, SystemConfig


def make_system(**features) -> CMPSystem:
    cfg = SystemConfig(
        n_cores=2,
        l1i=CacheConfig(2 * 1024, 2),
        l1d=CacheConfig(2 * 1024, 2),
        l2=L2Config(32 * 1024, n_banks=2),
    )
    if features:
        cfg = cfg.with_features(**features)
    return CMPSystem(cfg, "oltp", seed=0)


def invariants(h) -> set:
    """Names of every broken invariant, without raising."""
    return {v.invariant for v in audit_hierarchy(h, raise_on_violation=False)}


class TestCleanRuns:
    @pytest.mark.parametrize(
        "features",
        [
            {},
            dict(cache_compression=True, link_compression=True),
            dict(prefetching=True),
            dict(prefetching=True, adaptive=True, cache_compression=True, link_compression=True),
        ],
        ids=["base", "compr", "pref", "everything"],
    )
    def test_invariants_hold_after_stress(self, features):
        system = make_system(**features)
        system.run(2500, warmup_events=500)
        assert audit_hierarchy(system.hierarchy) == []

    def test_invariants_hold_under_random_workload_mix(self):
        rng = random.Random(0)
        for seed in range(3):
            w = rng.choice(["zeus", "jbb", "fma3d"])
            system = CMPSystem(
                SystemConfig(
                    n_cores=2,
                    l1i=CacheConfig(2 * 1024, 2),
                    l1d=CacheConfig(2 * 1024, 2),
                    l2=L2Config(32 * 1024, n_banks=2, compressed=True),
                ).with_features(prefetching=True, adaptive=True),
                w,
                seed=seed,
            )
            system.run(1200, warmup_events=300)
            assert audit_hierarchy(system.hierarchy) == []


class TestDetection:
    """Corrupt the state on purpose; every check must catch its class."""

    def test_inclusion_breach_detected(self):
        system = make_system()
        system.run(400, warmup_events=100)
        h = system.hierarchy
        # Remove an L2 line behind the hierarchy's back.
        addr = next(a for a, e in h.l1d[0]._map.items() if e.valid)
        cset = h.l2._sets[h.l2.set_index(addr)]
        entry = h.l2._map[addr]
        cset.valid_stack.remove(entry)
        h.l2._retire(cset, entry)
        assert "inclusion.l1_line_not_in_l2" in invariants(h)
        with pytest.raises(AuditViolation):
            audit_hierarchy(h)

    def test_directory_bit_without_copy_detected(self):
        system = make_system()
        system.run(400, warmup_events=100)
        h = system.hierarchy
        addr = next(a for a, e in h.l2._map.items() if e.valid and e.sharers == 0)
        h.l2._map[addr].sharers = 0b11  # phantom sharers
        assert "directory.stale_sharer_bit" in invariants(h)

    def test_double_writer_detected(self):
        system = make_system()
        h = system.hierarchy
        from repro.cache.line import MSIState

        h.access(0, 2, 0x100, 0.0)  # STORE -> Modified in core 0
        h.l1d[1].insert(0x100, state=MSIState.MODIFIED)  # illegal twin
        found = invariants(h)
        assert {"directory.owner_mismatch", "directory.missing_sharer_bit"} <= found

    def test_segment_corruption_detected(self):
        system = make_system(cache_compression=True)
        system.run(400, warmup_events=100)
        h = system.hierarchy
        cset = next(s for s in h.l2._sets if s.valid_stack)
        cset.used_segments += 1
        assert "l2.used_segments" in invariants(h)

    def test_raise_on_failure_flag(self):
        system = make_system()
        system.run(200, warmup_events=50)
        h = system.hierarchy
        addr = next(a for a, e in h.l2._map.items() if e.valid)
        h.l2._map[addr].sharers = 0b11
        assert audit_hierarchy(h, raise_on_violation=False)
