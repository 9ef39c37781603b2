"""Miss-handling realism: MSHR files, the write-back buffer, tree-PLRU.

Covers the structures in :mod:`repro.memory.mshr` and
:mod:`repro.cache.plru` at three levels: the bare state machines, the
reference hierarchy's use of them (coalescing, demand stalls, prefetch
gating, bounded write-back traffic), and whole-system runs proving the
knobs change timing measurably while the differential oracle stays in
lockstep.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cache.plru import plru_touch, plru_victim
from repro.core.hierarchy import MemoryHierarchy
from repro.core.system import CMPSystem
from repro.memory.mshr import MSHRFile, WriteBackBuffer
from repro.params import (
    CacheConfig,
    L2Config,
    LinkConfig,
    MemoryConfig,
    PrefetchConfig,
    SystemConfig,
)
from repro.workloads.base import LOAD

from tests.test_hierarchy import FixedValues


def make_hierarchy(
    *,
    mshr_entries=None,
    writeback_buffer=0,
    prefetch=False,
    replacement="lru",
    latency=400,
):
    cfg = SystemConfig(
        n_cores=2,
        l1i=CacheConfig(size_bytes=1024, assoc=2, replacement=replacement),
        l1d=CacheConfig(size_bytes=1024, assoc=2, replacement=replacement),
        l2=L2Config(size_bytes=16 * 1024, n_banks=2),
        link=LinkConfig(bandwidth_gbs=20.0),
        prefetch=PrefetchConfig(enabled=prefetch),
        memory=MemoryConfig(
            latency_cycles=latency,
            mshr_entries=mshr_entries,
            writeback_buffer=writeback_buffer,
        ),
    )
    return MemoryHierarchy(cfg, FixedValues(4))


# ---------------------------------------------------------------------------
# tree-PLRU primitives
# ---------------------------------------------------------------------------


class TestPLRUPrimitives:
    def test_touch_protects_the_touched_way(self):
        ways = 4
        full = (1 << ways) - 1
        for way in range(ways):
            bits = plru_touch(0, way, ways)
            assert plru_victim(bits, ways, full) != way

    def test_touch_victim_loop_cycles_all_ways(self):
        """Touching each selected victim must visit every way before
        repeating — the classic tree-PLRU round."""
        ways, bits = 4, 0
        seen = []
        for _ in range(ways):
            victim = plru_victim(bits, ways, (1 << ways) - 1)
            seen.append(victim)
            bits = plru_touch(bits, victim, ways)
        assert sorted(seen) == list(range(ways))

    def test_mask_diverts_to_sibling_subtree(self):
        # bits == 0 points at way 0, but the mask only allows the right
        # half of the tree; the walk must divert.
        assert plru_victim(0, 4, 0b1100) in (2, 3)
        # And within the diverted subtree the direction bit still applies.
        bits = plru_touch(0, 2, 4)  # protect way 2
        assert plru_victim(bits, 4, 0b1100) == 3

    def test_single_way_set_is_trivial(self):
        assert plru_touch(0, 0, 1) == 0
        assert plru_victim(0, 1, 0b1) == 0


# ---------------------------------------------------------------------------
# MSHRFile state machine
# ---------------------------------------------------------------------------


class TestMSHRFile:
    def test_occupancy_limit_and_lazy_pruning(self):
        m = MSHRFile(entries=2, n_cores=2)
        for addr, done in ((0x100, 100.0), (0x140, 200.0)):
            start = m.allocate(0, 0.0, True)
            assert start == 0.0
            m.commit(0, addr, done, 4)
        assert not m.can_allocate(0, 0.0)
        assert m.occupancy(0.0) == 2
        # The 100.0 entry retires by t=150: one slot frees lazily.
        assert m.can_allocate(0, 150.0)
        assert m.occupancy(150.0) == 1
        assert m.peak_occupancy == 2

    def test_full_file_stalls_demand_for_oldest_entry(self):
        m = MSHRFile(entries=1, n_cores=1)
        m.allocate(0, 0.0, True)
        m.commit(0, 0x100, 500.0, 4)
        start = m.allocate(0, 10.0, True)
        assert start == 500.0  # waited for the oldest fill
        assert m.stalls == 1

    def test_prefetch_allocation_never_counts_a_stall(self):
        m = MSHRFile(entries=1, n_cores=1)
        m.allocate(0, 0.0, False)
        m.commit(0, 0x100, 500.0, 4)
        m.allocate(0, 10.0, False)
        assert m.stalls == 0
        assert m.allocations == 2

    def test_lookup_window_closes_at_data_arrival(self):
        m = MSHRFile(entries=4, n_cores=1)
        m.allocate(0, 0.0, True)
        m.commit(0, 0x200, 500.0, 3)
        assert m.lookup(0x200, 499.0) == (500.0, 3)
        assert m.lookup(0x200, 500.0) is None

    def test_files_are_per_core(self):
        m = MSHRFile(entries=1, n_cores=2)
        m.allocate(0, 0.0, True)
        m.commit(0, 0x100, 500.0, 4)
        assert not m.can_allocate(0, 0.0)
        assert m.can_allocate(1, 0.0)

    def test_reset_stats_keeps_machine_state(self):
        m = MSHRFile(entries=2, n_cores=1)
        m.allocate(0, 0.0, True)
        m.commit(0, 0x100, 500.0, 4)
        m.reset_stats()
        assert (m.allocations, m.coalesced, m.stalls, m.peak_occupancy) == (0, 0, 0, 0)
        # In-flight entries survive: they are hardware state, not stats.
        assert m.occupancy(0.0) == 1
        assert m.lookup(0x100, 10.0) is not None


# ---------------------------------------------------------------------------
# WriteBackBuffer state machine
# ---------------------------------------------------------------------------


class TestWriteBackBuffer:
    @staticmethod
    def _send(starts):
        def send(start, segments):
            starts.append(start)
            return start + 10.0

        return send

    def test_full_buffer_delays_traffic_to_oldest_drain(self):
        wb = WriteBackBuffer(capacity=1)
        starts = []
        send = self._send(starts)
        assert wb.insert(0.0, 4, send) == 10.0
        # Second insert at t=5: slot busy until 10, traffic waits.
        assert wb.insert(5.0, 4, send) == 20.0
        assert starts == [0.0, 10.0]
        assert wb.full_stalls == 1
        # By t=25 everything drained: a slot is free again.
        assert wb.insert(25.0, 4, send) == 35.0
        assert wb.full_stalls == 1
        assert wb.inserted == 3
        assert wb.peak_occupancy == 1

    def test_infinite_bandwidth_drains_instantly(self):
        wb = WriteBackBuffer(capacity=2)
        done = wb.insert(7.0, 4, lambda start, segments: 0.0)
        assert done == 7.0  # clamped: a transfer can't finish before it starts
        assert wb.occupancy(7.0) == 0

    def test_reset_stats_keeps_in_flight_writebacks(self):
        wb = WriteBackBuffer(capacity=1)
        wb.insert(0.0, 4, lambda s, seg: s + 10.0)
        wb.reset_stats()
        assert (wb.inserted, wb.full_stalls, wb.peak_occupancy) == (0, 0, 0)
        assert wb.occupancy(5.0) == 1


# ---------------------------------------------------------------------------
# the hierarchy's use of the structures
# ---------------------------------------------------------------------------


class TestHierarchyMissHandling:
    def test_secondary_fetch_coalesces_onto_inflight_entry(self):
        h = make_hierarchy(mshr_entries=4, latency=1000)
        done1, seg1 = h._fetch_line(0, 0x700, 0.0, True)
        done2, seg2 = h._fetch_line(1, 0x700, 10.0, True)
        assert (done2, seg2) == (done1, seg1)
        assert h.mshr.allocations == 1
        assert h.mshr.coalesced == 1

    def test_full_file_delays_demand_miss(self):
        h = make_hierarchy(mshr_entries=1, latency=1000)
        lat_first, _ = h.access(0, LOAD, 0x100, now=0.0)
        lat_second, _ = h.access(0, LOAD, 0x4100, now=1.0)
        assert h.mshr.stalls == 1
        # The second miss waits out the first fill on top of its own.
        roomy = make_hierarchy(mshr_entries=16, latency=1000)
        roomy.access(0, LOAD, 0x100, now=0.0)
        lat_roomy, _ = roomy.access(0, LOAD, 0x4100, now=1.0)
        assert lat_second > lat_roomy

    def test_prefetch_gate_drops_when_file_full_but_coalesce_passes(self):
        h = make_hierarchy(mshr_entries=1, prefetch=True, latency=1000)
        h._fetch_line(0, 0x800, 0.0, True)  # fills core 0's only entry
        assert not h._pf_fetch_gate(0, 0x900, 10.0)
        # A prefetch to the in-flight line itself needs no new entry.
        assert h._pf_fetch_gate(0, 0x800, 10.0)
        # Other cores' files are independent.
        assert h._pf_fetch_gate(1, 0x900, 10.0)

    def test_writeback_buffer_bounds_link_entry_times(self):
        h = make_hierarchy(writeback_buffer=1)
        h._send_writeback(0.0, 4)
        first_free = h.link.free_time
        assert first_free > 0.0
        h._send_writeback(1.0, 4)
        assert h.wb.inserted == 2
        assert h.wb.full_stalls == 1
        # The second transfer entered the link only after the first drained.
        assert h.link.free_time >= 2 * first_free - 0.0

    def test_legacy_writeback_path_unbuffered(self):
        h = make_hierarchy(writeback_buffer=0)
        assert h.wb is None
        h._send_writeback(0.0, 4)
        assert h.link.free_time > 0.0


# ---------------------------------------------------------------------------
# whole-system behaviour
# ---------------------------------------------------------------------------


# The runs go through the session-memoized ``memo_run`` fixture
# (tests/conftest.py): the shared 4-core baseline is simulated once per
# session.
_SMALL = SystemConfig(n_cores=4)


class TestSystemLevel:
    def test_small_mshr_file_changes_ipc(self, memo_run):
        unconstrained = memo_run(_SMALL)
        constrained = memo_run(
            replace(_SMALL, memory=replace(_SMALL.memory, mshr_entries=2))
        )
        assert constrained.extra["mshr_demand_stalls"] > 0
        assert constrained.ipc != unconstrained.ipc

    def test_mshr_counters_exported_only_when_configured(self, memo_run):
        plain = memo_run(_SMALL)
        assert "mshr_allocations" not in plain.extra
        withm = memo_run(
            replace(_SMALL, memory=replace(_SMALL.memory, mshr_entries=8))
        )
        assert withm.extra["mshr_allocations"] > 0
        assert "mshr_coalesced" in withm.extra
        assert "mshr_peak_occupancy" in withm.extra

    def test_coalescing_fires_and_oracle_stays_clean(self):
        """High memory latency + a tiny L2 + sequential prefetching keep
        lines in flight after their L2 frame is re-victimised, so repeat
        misses coalesce.  The differential oracle must replay the merged
        fills exactly (its C-record protocol)."""
        from repro.verify.oracle import verify_system

        base = SystemConfig()
        cfg = replace(
            base,
            l1i=replace(base.l1i, size_bytes=1024),
            l1d=replace(base.l1d, size_bytes=1024),
            l2=replace(base.l2, size_bytes=16 * 1024),
            memory=replace(base.memory, latency_cycles=1000, mshr_entries=8),
            prefetch=replace(base.prefetch, enabled=True, kind="sequential"),
        )
        system = CMPSystem(cfg, workload="apache", seed=3)
        result, problems = verify_system(system, 2000)
        assert problems == [], problems[:3]
        assert system.hierarchy.mshr.coalesced > 0  # coalesced fills happened

    def test_plru_replacement_changes_results(self, memo_run):
        lru = memo_run(_SMALL)
        plru = memo_run(
            replace(
                _SMALL,
                l1i=replace(_SMALL.l1i, replacement="plru"),
                l1d=replace(_SMALL.l1d, replacement="plru"),
                l2=replace(_SMALL.l2, replacement="plru"),
            )
        )
        assert plru.ipc != lru.ipc

    def test_writeback_buffer_backpressure_visible_in_results(self, memo_run):
        # Write-back pressure needs the full 8-core system; 4 cores never
        # fill even a one-entry buffer on this workload.
        base = SystemConfig()
        cfg = replace(base, memory=replace(base.memory, writeback_buffer=1))
        result = memo_run(cfg, workload="apache", events=1500)
        assert result.extra["wb_inserted"] > 0
        assert "wb_full_stalls" in result.extra
        assert "wb_peak_occupancy" in result.extra
