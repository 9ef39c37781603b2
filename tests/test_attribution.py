"""Causal attribution must explain every event without perturbing any.

The two load-bearing guarantees, proven across the full workload x
config matrix:

* **read-only** — ``SystemConfig.attribution`` (``repro run --why``)
  leaves ``result_fingerprint`` bit-identical to a plain run;
* **exact accounting** — attributed misses sum to ``l2.demand_misses``,
  eviction causes sum to the eviction/invalidation counters, with no
  "other" bucket to hide leaks in.

The rest of the suite covers the classification semantics of the shadow
victim filter, the prefetch/compression ledgers, the estimator-vs-
ground-truth cross-check against Figure 8's set arithmetic, and the
``run --why`` / ``figure8`` / ``matrix --attribution`` CLI entry points.
"""

from __future__ import annotations

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cache.compressed import CompressedSetCache
from repro.core.diskcache import DiskCache
from repro.core.experiment import CONFIG_FEATURES, make_config, run_point
from repro.core.missclass import classify_misses
from repro.core.system import CMPSystem
from repro.digest import stable_hash
from repro.obs.attribution import AttributionTracker
from repro.report.export import result_fingerprint
from repro.workloads.registry import all_names


def _tracked_run(key, workload, *, events=400, warmup=200, seed=5):
    cfg = replace(make_config(key, n_cores=2, scale=16), attribution=True)
    system = CMPSystem(cfg, workload, seed=seed)
    result = system.run(events, warmup_events=warmup)
    return system, result


# ---------------------------------------------------------------------------
# read-only + exact-accounting guarantee: the full 8x8 matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(all_names()))
@pytest.mark.parametrize("key", sorted(CONFIG_FEATURES))
def test_attribution_never_changes_results(workload, key):
    """Attribution off vs on: bit-identical fingerprints and exact
    reconciliation against the stats counters."""
    plain_cfg = make_config(key, n_cores=2, scale=16)
    plain = CMPSystem(plain_cfg, workload, seed=5).run(400, warmup_events=200)
    system, tracked = _tracked_run(key, workload)
    assert result_fingerprint(plain) == result_fingerprint(tracked)
    tracker = system.observer.attribution
    assert tracker is not None
    assert tracker.reconcile_result(tracked) == []
    # The tracked run actually observed something.
    assert tracker.classified_misses() > 0
    assert any(k.startswith("attr_") for k in tracked.extra)


def test_attr_extras_do_not_perturb_fingerprint_input():
    """attr_* rows live in extra but are stripped from the hash: two
    results differing only in attr_* rows fingerprint identically."""
    cfg = make_config("pref_compr", n_cores=2, scale=16)
    result = CMPSystem(cfg, "zeus", seed=3).run(300, warmup_events=150)
    fp = result_fingerprint(result)
    result.extra["attr_fake_row"] = 123.0
    assert result_fingerprint(result) == fp
    result.extra["not_attr_row"] = 1.0
    assert result_fingerprint(result) != fp


def _count_stack_depth(monkeypatch):
    """Count calls of ``CompressedSetCache.stack_depth`` from here on."""
    calls = []
    original = CompressedSetCache.stack_depth

    def counted(self, line_addr):
        calls.append(line_addr)
        return original(self, line_addr)

    monkeypatch.setattr(CompressedSetCache, "stack_depth", counted)
    return calls


def test_only_attribution_reads_the_l2_stack_depth(monkeypatch):
    """The O(assoc) depth scan runs for an L2 demand hit only when the
    tracker takes the event; a trace-only run never pays it."""
    calls = _count_stack_depth(monkeypatch)
    cfg = replace(make_config("base", n_cores=2, scale=64), trace=True)
    result = CMPSystem(cfg, "apache", seed=5).run(2000, warmup_events=1000)
    assert result.l2.demand_hits > 0
    assert calls == []
    _tracked_run("base", "apache", events=2000, warmup=1000)
    assert calls


def test_attributed_extras_match_the_recorded_point():
    """The tracker reads the stack depth itself; its ``attr_*`` extras
    equal those recorded when the hierarchy passed the depth in."""
    cfg = replace(make_config("pref_compr", n_cores=2, scale=64), attribution=True)
    result = CMPSystem(cfg, "apache", seed=5).run(2000, warmup_events=1000)
    extra = {k: v for k, v in result.extra.items() if k.startswith("attr_")}
    assert extra["attr_comp_avoided_hits"] == 54.0
    assert extra["attr_pf_useful"] == 211.0
    assert stable_hash(extra) == (
        "15077381b080ee8a1bb87c6019f1f1d5efb43be2ea8f431e34a8b4c58fcc3e49"
    )


# ---------------------------------------------------------------------------
# estimator vs ground truth
# ---------------------------------------------------------------------------


def test_figure8_estimate_tracks_measured_attribution():
    """Figure 8's four-run set arithmetic vs the per-event ledgers.

    The two methods measure different things — the estimator counts
    misses that *disappeared* between aggregate runs (where timing
    feedback shifts every subsequent access), the tracker counts
    individual useful prefetches / beyond-depth hits inside one run —
    so they can only be expected to agree on magnitude.  Empirically at
    this scale the prefetching split lands within ~0.14 absolute
    (oltp 0.235 vs 0.217, apache 0.332 vs 0.196) and the compression
    split within ~0.01; we assert a 0.35 absolute bound so the test
    flags a broken ledger (order-of-magnitude disagreement, e.g.
    double counting) without chasing simulator noise.
    """
    for workload in ("oltp", "apache"):
        runs, trackers = {}, {}
        for key in ("base", "compr", "pref", "pref_compr"):
            cfg = replace(make_config(key, n_cores=2, scale=16),
                          attribution=True)
            system = CMPSystem(cfg, workload, seed=5)
            runs[key] = system.run(2000, warmup_events=1000)
            trackers[key] = system.observer.attribution
        cls = classify_misses(
            runs["base"], runs["compr"], runs["pref"], runs["pref_compr"]
        )
        measured_p = trackers["pref"].pf_useful / cls.base_misses
        measured_c = trackers["compr"].comp_avoided_hits / cls.base_misses
        assert abs(measured_p - cls.avoided_by_prefetching) < 0.35, workload
        assert abs(measured_c - cls.avoided_by_compression) < 0.35, workload
        # Both sides saw a real effect to compare.
        assert trackers["pref"].pf_useful > 0
        assert trackers["compr"].comp_avoided_hits > 0


# ---------------------------------------------------------------------------
# classification semantics (unit level)
# ---------------------------------------------------------------------------


def _tracker(n_sets=4, tags_per_set=2, uncompressed_assoc=2, compressed=True,
             depth=0):
    """A tracker whose L2 reports every hit at LRU stack depth ``depth``."""
    cfg = SimpleNamespace(l2=SimpleNamespace(
        n_sets=n_sets, tags_per_set=tags_per_set,
        uncompressed_assoc=uncompressed_assoc, compressed=compressed))
    return AttributionTracker(cfg, lambda addr: depth)


def test_miss_classification_paths():
    t = _tracker(n_sets=1, tags_per_set=2)
    assert t.on_l2_demand_miss(0x100) == "compulsory"
    t.on_l2_fill(0x100, "demand", 8)
    t.on_l2_evict(0x100, "prefetch_fill")
    assert t.on_l2_demand_miss(0x100) == "pollution"
    t.on_l2_fill(0x100, "demand", 8)
    t.on_l2_evict(0x100, "expansion")
    assert t.on_l2_demand_miss(0x100) == "expansion"
    t.on_l2_fill(0x100, "demand", 8)
    t.on_l2_evict(0x100, "demand_fill")
    assert t.on_l2_demand_miss(0x100) == "capacity"
    assert t.miss_class == {
        "compulsory": 1, "capacity": 1, "pollution": 1, "expansion": 1
    }


def test_shadow_filter_ages_out_oldest():
    t = _tracker(n_sets=1, tags_per_set=2)
    for addr in (1, 2, 3):
        t.on_l2_fill(addr, "demand", 8)
    t.on_l2_evict(1, "prefetch_fill")
    t.on_l2_evict(2, "prefetch_fill")
    t.on_l2_evict(3, "prefetch_fill")  # ages addr 1 out of the filter
    # Aged out of the bounded filter: the eviction is no longer "recent",
    # so the re-miss downgrades to capacity.
    assert t.on_l2_demand_miss(1) == "capacity"
    assert t.on_l2_demand_miss(2) == "pollution"


def test_prefetch_ledger_useful_late_useless():
    t = _tracker(n_sets=1)
    t.on_l2_fill(0x10, "l2_prefetch", 8)
    t.on_l2_demand_hit(0x10, True)  # first touch, fill in flight
    t.on_l2_demand_hit(0x10, False)  # second touch: not re-counted
    t.on_l2_fill(0x20, "l1_prefetch", 8)
    t.on_l2_evict(0x20, "demand_fill")  # evicted untouched
    t.on_l2_fill(0x30, "demand", 8)
    t.on_l2_evict(0x30, "demand_fill")  # demand lines are never "useless"
    assert (t.pf_useful, t.pf_late, t.pf_useless) == (1, 1, 1)


def test_compression_ledger_gated_on_cache_compression():
    # Stack depth 2 is at uncompressed_assoc: the hit is an avoided miss.
    on = _tracker(compressed=True, depth=2)
    off = _tracker(compressed=False, depth=2)
    for t in (on, off):
        t.on_l2_fill(0x10, "demand", 3)  # compressible: 5 segments saved
        t.on_l2_fill(0x20, "demand", 8)  # incompressible
        t.on_l2_demand_hit(0x10, False)
    assert (on.comp_fills, on.comp_segments_saved) == (1, 5)
    assert on.comp_bytes_saved == 5 * 8
    assert on.comp_avoided_hits == 1
    assert (off.comp_fills, off.comp_segments_saved) == (0, 0)
    # The depth criterion is structural, not scheme-gated.
    assert off.comp_avoided_hits == 1


def test_reset_keeps_provenance_state_but_zeroes_ledgers():
    t = _tracker(n_sets=1)
    t.on_l2_demand_miss(0x10)
    t.on_l2_fill(0x10, "l2_prefetch", 8)
    t.on_l2_evict(0x10, "prefetch_fill")
    t.reset_counters()
    assert t.classified_misses() == 0 and t.pf_useless == 0
    # _seen and the shadow filter survived: the re-miss is pollution,
    # not compulsory.
    assert t.on_l2_demand_miss(0x10) == "pollution"


def test_reconcile_reports_each_mismatch():
    t = _tracker()
    t.on_l2_demand_miss(0x10)
    problems = t.reconcile(l2_demand_misses=5, l2_evictions=1,
                           l1_evictions=2, l1_invalidations=3)
    assert len(problems) == 4
    assert t.reconcile(l2_demand_misses=1, l2_evictions=0,
                       l1_evictions=0, l1_invalidations=0) == []


def test_shares_and_export_shapes():
    t = _tracker(n_sets=1)
    t.on_l2_fill(0x10, "demand", 8)
    t.on_l2_evict(0x10, "prefetch_fill")
    t.on_l2_demand_miss(0x10)  # pollution
    t.on_l2_demand_miss(0x20)  # compulsory
    assert t.pollution_share() == 0.5
    assert t.expansion_share() == 0.0
    extra = t.to_extra()
    assert all(k.startswith("attr_") for k in extra)
    assert extra["attr_miss_pollution"] == 1.0
    data = t.to_dict()
    assert data["shares"]["pollution"] == 0.5
    table = t.table()
    for heading in ("demand misses (why)", "L2 evictions (cause)",
                    "prefetch ledger", "compression ledger"):
        assert heading in table


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_why_command(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "why.json"
    rc = main(["run", "zeus", "--config", "pref_compr", "--why", str(out),
               "--events", "400", "--scale", "16", "--cores", "2"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "demand misses (why)" in captured
    assert "reconciles exactly" in captured
    assert "miss_class" in json.loads(out.read_text())


def test_cli_figure8_command(capsys, monkeypatch, tmp_path):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    rc = main(["figure8", "--workloads", "zeus", "--attribution",
               "--events", "600", "--scale", "16", "--cores", "2"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "unavoid=" in captured
    assert "prefetching: estimated" in captured
    assert "compression: estimated" in captured


def test_cli_matrix_attribution(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "matrix.csv"
    rc = main(["matrix", "--workloads", "zeus",
               "--prefetchers", "none,stride", "--schemes", "none,fpc",
               "--attribution", "--quiet", "-o", str(out),
               "--events", "300", "--scale", "16", "--cores", "2"])
    assert rc == 0
    assert "pollution%" in capsys.readouterr().out
    header = out.read_text().splitlines()[0]
    assert header.endswith(",pollution_share,expansion_share")


def test_matrix_emits_telemetry_and_progress(tmp_path, monkeypatch):
    from repro.obs import telemetry
    from repro.report.matrix import run_matrix

    sink = tmp_path / "telemetry.jsonl"
    monkeypatch.setenv("REPRO_TELEMETRY", str(sink))
    seen = []

    class Progress:
        def point_done(self, done, total, source=None):
            seen.append((done, total, source))

    base = make_config("base", n_cores=2, scale=16)
    report = run_matrix(["zeus"], base_config=base,
                        prefetchers=("none", "stride"), schemes=("none",),
                        events=200, warmup=100, progress=Progress(),
                        attribution=True)
    telemetry.close_sinks()
    records = telemetry.read_records(str(sink))
    kinds = [r["kind"] for r in records]
    assert kinds.count("matrix-point") == report.simulations
    assert kinds.count("matrix") == 1
    assert [d for d, _, _ in seen] == list(range(1, report.simulations + 1))
    assert all(total == 2 for _, total, _ in seen)
    # Attribution annotated the cells without touching the speedups.
    assert all(c.pollution_share is not None for c in report.cells)


def test_ledger_from_extra_matches_the_live_tracker():
    """The ledgers read back from a result's ``attr_*`` rows render the
    same table and JSON as the tracker that filled them."""
    system, result = _tracked_run("pref_compr", "zeus")
    live = system.observer.attribution
    back = AttributionTracker.from_extra(result.extra)
    assert back.table() == live.table()
    assert back.to_dict() == live.to_dict()
    assert back.reconcile_result(result) == []
    assert AttributionTracker.from_extra({"memory_stall_cycles": 1.0}) is None


def test_attribution_on_a_warm_point_is_simulated(tmp_path, monkeypatch):
    """An observed point never reads the caches, so a warm disk cache
    cannot hand back a result without its ledgers."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cfg = replace(make_config("pref_compr", scale=16, n_cores=2), attribution=True)

    def rows(result):
        return {k: v for k, v in result.extra.items() if k.startswith("attr_")}

    cold = run_point("zeus", cfg, events=400, warmup=400)
    warm = run_point("zeus", cfg, events=400, warmup=400)
    assert rows(cold)
    assert rows(warm) == rows(cold)
    assert DiskCache().stats()["entries"] == 0
