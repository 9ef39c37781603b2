"""Regression tests for specific accounting and timing bugs.

Each test here encodes a bug that once existed (and failed on the
pre-fix code): the L1 inclusion-fallback writeback ignoring the access
time, partial hits on in-flight prefetches not counting as useful,
``reset_stats`` leaking warmup state, and a killed worker process taking
the whole parallel sweep down with it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.cache.line import MSIState
from repro.cache.set_assoc import Eviction
from repro.core.runner import ParallelRunner, PointError
from repro.workloads.base import LOAD

from tests.test_hierarchy import make_hierarchy


class TestInclusionFallbackWritebackTiming:
    """The fallback writeback (dirty L1 eviction whose line is no longer
    in the L2) must enter the pin link at the eviction's time, not at
    cycle zero — at t=0 the link looked free, so the writeback never
    queued and never charged its serialization at the right time."""

    def test_fallback_writeback_uses_current_time(self):
        h = make_hierarchy()
        now = 50_000.0
        addr = 0x9999  # never inserted into the L2
        assert h.l2.probe(addr) is None
        ev = Eviction(addr=addr, dirty=True, prefetch_untouched=False)
        h._handle_l1_eviction(0, ev, h._route_d[0], now)
        assert h.l1d_stats.writebacks == 1
        # The data message starts serializing at `now`, so the link is
        # busy *after* it; with the bug it was busy in the distant past.
        assert h.link.free_time >= now

    def test_fallback_writeback_queues_behind_busy_link(self):
        h = make_hierarchy()
        h.link.free_time = 70_000.0
        ev = Eviction(addr=0x9999, dirty=True, prefetch_untouched=False)
        h._handle_l1_eviction(0, ev, h._route_d[0], 50_000.0)
        assert h.link.free_time > 70_000.0


class TestPartialHitCountsUseful:
    """A demand access hitting a prefetched line still in flight is the
    *best* prefetch outcome (it was issued just in time); the adaptive
    controller credited it but the reported useful counter did not."""

    def test_l1_partial_hit_increments_useful(self):
        h = make_hierarchy(prefetch=True)
        addr = 0x140
        h.l2.insert(addr, 8, sharers=1)  # resident in the L2, core 0 sharing
        h.l1d[0].insert(addr, MSIState.SHARED, False, True, fill_time=50.0)
        before_useful = h.pf_stats["l1d"].useful
        latency, pure_hit = h.access(0, 1, addr, now=0.0)  # LOAD
        # A partial hit: the line is found but the core waits out the
        # remaining fill latency, so it does not count as a pure hit.
        assert not pure_hit and latency > 0.0
        assert h.l1d_stats.demand_hits == 1
        assert h.l1d_stats.partial_hits == 1
        assert h.pf_stats["l1d"].useful == before_useful + 1
        # Consistent with the conservation law the auditor enforces.
        assert h.pf_stats["l1d"].useful == (
            h.l1d_stats.prefetch_hits + h.l1d_stats.partial_hits
        )

    def test_l2_partial_hit_increments_useful(self):
        h = make_hierarchy(prefetch=True)
        addr = 0x2480
        h.l2.insert(addr, 8, prefetch=True, fill_time=10_000.0)
        before_useful = h.pf_stats["l2"].useful
        h.access(0, 1, addr, now=0.0)  # LOAD missing L1, partial-hitting L2
        assert h.l2_stats.partial_hits == 1
        assert h.pf_stats["l2"].useful == before_useful + 1
        assert h.pf_stats["l2"].useful == (
            h.l2_stats.prefetch_hits + h.l2_stats.partial_hits
        )


class TestResetStatsLeaks:
    """reset_stats must zero everything feeding reported metrics: the L2
    effective-size sampling phase and the compression policy's event
    tallies both leaked across the warmup/measure boundary."""

    def test_l2_access_count_reset(self):
        h = make_hierarchy(compressed=True)
        h._l2_access_count = 300
        h.reset_stats()
        assert h._l2_access_count == 0

    def test_compression_policy_event_tallies_reset_counter_kept(self):
        h = make_hierarchy(compressed=True)
        policy = h.compression_policy
        policy.avoided_miss_events = 7
        policy.penalized_hit_events = 11
        policy.counter = 123.0
        h.reset_stats()
        assert policy.avoided_miss_events == 0
        assert policy.penalized_hit_events == 0
        # The benefit/cost counter is the policy's learned state, not a
        # measurement — it must survive (like cache contents do).
        assert policy.counter == 123.0

    def test_adaptive_event_totals_survive_reset(self):
        """The sequential prefetcher consumes AdaptiveController event
        totals as deltas, so they are clock-like state: resetting them
        would produce negative deltas after warmup."""
        h = make_hierarchy(prefetch=True, adaptive=True)
        h.l2_adaptive.useful_events = 5
        h.l2_adaptive.useless_events = 3
        h.reset_stats()
        assert h.l2_adaptive.useful_events == 5
        assert h.l2_adaptive.useless_events == 3


class TestDramRowStatsResetAndExport:
    """``DRAM.row_hits``/``row_misses`` were never zeroed by
    ``reset_stats`` and never exported: a warmed-up run reported row
    locality accumulated since cycle zero (or, in practice, nothing at
    all — no consumer ever read the counters)."""

    @staticmethod
    def _row_config():
        from dataclasses import replace

        from repro.params import SystemConfig

        base = SystemConfig()
        return replace(base, memory=replace(base.memory, row_buffer=True))

    def test_reset_stats_zeroes_row_counters(self):
        from repro.core.system import CMPSystem

        system = CMPSystem(self._row_config(), workload="oltp", seed=1)
        system.run(400)
        dram = system.hierarchy.dram
        assert dram.row_hits + dram.row_misses > 0
        system.reset_stats()
        assert dram.row_hits == 0
        assert dram.row_misses == 0

    def test_warmup_run_exports_measure_phase_row_stats(self):
        from dataclasses import replace

        from repro.core.system import CMPSystem

        config = self._row_config()
        cold = CMPSystem(config, workload="oltp", seed=1).run(400)
        warmed = CMPSystem(config, workload="oltp", seed=1).run(
            400, warmup_events=400
        )
        for key in ("dram_row_hits", "dram_row_misses"):
            assert key in cold.extra
            assert key in warmed.extra
        # With the bug, the warmed run also carried the warmup phase's
        # row outcomes; a fresh cold run of the same length cannot have
        # fewer accesses than the measure phase alone reports.
        assert (
            warmed.extra["dram_row_hits"] + warmed.extra["dram_row_misses"]
            <= cold.extra["dram_row_hits"] + cold.extra["dram_row_misses"]
        )

    def test_row_counters_absent_without_row_buffer(self):
        from repro.core.system import CMPSystem
        from repro.params import SystemConfig

        result = CMPSystem(SystemConfig(), workload="oltp", seed=1).run(300)
        assert "dram_row_hits" not in result.extra
        assert "dram_row_misses" not in result.extra


class TestDroppedPrefetchAccounting:
    """A prefetch rejected at the memory interface (legacy per-core DRAM
    slot gate, or a full MSHR file) vanished without a trace: the
    ``PrefetchStats.dropped`` counter existed but no code path ever
    incremented it, so issued counts silently overstated the prefetcher's
    reach."""

    def test_dram_slot_rejection_counts_dropped(self):
        h = make_hierarchy(prefetch=True)
        # Exhaust core 0's legacy DRAM slots with in-flight prefetches.
        now = 0.0
        while h.dram.can_issue(0, now):
            h.dram.issue_prefetch(0, now, 0x10000)
        pf = h.pf_l1d[0]
        before = pf.stats.dropped
        h._issue_l1_prefetch(0, LOAD, 0x20040, now)
        assert pf.stats.dropped == before + 1

    def test_dropped_rides_the_flat_export_row(self):
        from repro.core.system import CMPSystem
        from repro.params import SystemConfig
        from repro.report.export import EXPORT_FIELDS, result_to_dict

        assert "pf_l2_dropped" in EXPORT_FIELDS
        result = CMPSystem(SystemConfig(), workload="oltp", seed=1).run(300)
        row = result_to_dict(result)
        assert row["pf_l2_dropped"] == result.prefetch["l2"].dropped

    def test_mshr_gate_rejection_counts_dropped(self):
        from tests.test_mshr import make_hierarchy as make_mshr_hierarchy

        h = make_mshr_hierarchy(mshr_entries=1, prefetch=True, latency=1000)
        h._fetch_line(0, 0x800, 0.0, True)  # core 0's single entry in flight
        pf = h.pf_l1d[0]
        before = pf.stats.dropped
        h._issue_l1_prefetch(0, LOAD, 0x20040, 10.0)
        assert pf.stats.dropped == before + 1


class TestNocResetKeepsTimingState:
    """``OnChipNetwork.reset_stats`` used to clear the sliding
    utilization window (``_window_start``/``_window_bytes``) along with
    the counters.  The window is *machine* state — it feeds the M/D/1
    congestion delay of future transfers — so a warmup-boundary reset
    shifted the very next post-reset access latency (one event crossed
    the 127/128 histogram-bucket boundary), breaking reset conservation.
    Found by ``repro fuzz`` seed 53."""

    @staticmethod
    def _noc():
        from repro.interconnect.noc import OnChipNetwork

        return OnChipNetwork(4, 320.0, 5.0)

    def test_reset_zeroes_counters_but_keeps_the_window(self):
        noc = self._noc()
        for i in range(40):
            noc.transfer_line(0, 10_000.0 + i)
        window = (noc._window_start, noc._window_bytes)
        noc.reset_stats()
        assert (noc.transfers, noc.bytes_total, noc.queue_cycles) == (0, 0, 0.0)
        assert (noc._window_start, noc._window_bytes) == window

    def test_post_reset_transfer_timing_unperturbed(self):
        """The next transfer after a reset must complete at exactly the
        time it would have without the reset."""
        straight, reset = self._noc(), self._noc()
        for i in range(40):
            t_straight = straight.transfer_line(0, 10_000.0 + i)
            t_reset = reset.transfer_line(0, 10_000.0 + i)
            assert t_straight == t_reset
        reset.reset_stats()
        assert straight.transfer_line(1, 10_040.0) == reset.transfer_line(
            1, 10_040.0
        )

    def test_reset_conservation_holds_with_the_noc_enabled(self):
        from dataclasses import replace

        from repro.params import SystemConfig
        from repro.verify.properties import check_reset_conservation

        config = replace(SystemConfig(n_cores=4), onchip_bandwidth_gbs=320.0)
        check_reset_conservation(
            config, "art", seed=53, warmup=400, events=600
        )


def _kill_self(*_args, **_kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker monkeypatch relies on fork inheritance",
)
class TestBrokenWorkerPool:
    """A worker killed by the OS (OOM, signal) must surface as
    PointErrors for the lost points, not crash the whole sweep."""

    def test_killed_workers_become_point_errors(self, monkeypatch):
        import repro.core.experiment as experiment

        monkeypatch.setattr(experiment, "run_point", _kill_self)
        points = [
            (("zeus", "base"), dict(events=50, warmup=0, use_cache=False)),
            (("oltp", "base"), dict(events=50, warmup=0, use_cache=False)),
            (("jbb", "base"), dict(events=50, warmup=0, use_cache=False)),
        ]
        outcomes = ParallelRunner(jobs=2).run_points(points)
        assert len(outcomes) == len(points)
        assert all(isinstance(o, PointError) for o in outcomes)
        # Coordinates and the lost-worker diagnosis are preserved.
        assert [o.workload for o in outcomes] == ["zeus", "oltp", "jbb"]
        assert all("BrokenProcessPool" in o.error for o in outcomes)

    def test_progress_still_reports_every_point(self, monkeypatch):
        import repro.core.experiment as experiment

        monkeypatch.setattr(experiment, "run_point", _kill_self)
        seen = []
        points = [(("zeus", "base"), dict(events=50, warmup=0, use_cache=False))] * 2
        ParallelRunner(jobs=2).run_points(points, progress=lambda d, t: seen.append((d, t)))
        assert seen[-1] == (2, 2)
