"""Tests for the seeded fuzzing harness (repro.verify.fuzz)."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.system import CMPSystem
from repro.params import asdict, config_from_dict
from repro.verify.fuzz import (
    FuzzFailure,
    fuzz_one,
    random_config,
    random_trace,
    reproduce,
    run_fuzz,
    save_failure,
)
from repro.verify.properties import COMPRESSION_NOOP_IGNORE
from repro.workloads.base import IFETCH, LOAD, STORE
from repro.workloads.registry import all_names


class TestRandomConfig:
    def test_always_legal(self):
        # The dataclass validators run at construction; 100 draws without
        # a ValueError means the generator respects every divisibility
        # and ordering constraint by construction.
        rng = random.Random(1234)
        for _ in range(100):
            cfg = random_config(rng)
            assert cfg.l2.tags_per_set >= cfg.l2.uncompressed_assoc
            assert cfg.l1d.n_sets >= 4

    def test_round_trips_through_dict(self):
        rng = random.Random(99)
        for _ in range(20):
            cfg = random_config(rng)
            assert config_from_dict(asdict(cfg)) == cfg

    @pytest.mark.parametrize("engine", ["ref", "fast"])
    def test_loads_configs_persisted_with_an_engine_key(self, engine):
        """Crash-corpus configs written while the engine was a config
        field still carry it; they must load, and the key is ignored."""
        cfg = random_config(random.Random(99))
        data = json.loads(json.dumps(dict(asdict(cfg), engine=engine)))
        assert config_from_dict(data) == cfg


class TestRandomTrace:
    def test_shape_and_kinds(self):
        rng = random.Random(7)
        trace = random_trace(rng, "oltp", n_cores=2, events_per_core=300)
        assert trace.workload == "oltp"
        assert trace.n_cores == 2
        assert trace.events_per_core == 300
        kinds = set()
        for core_events in trace.per_core_events:
            assert len(core_events) == 300
            for gap, kind, addr in core_events:
                assert 1 <= gap <= 40
                assert kind in (LOAD, STORE, IFETCH)
                assert addr >= 0
                kinds.add(kind)
        assert kinds == {LOAD, STORE, IFETCH}

    def test_runs_in_a_system(self):
        rng = random.Random(11)
        cfg = random_config(rng)
        trace = random_trace(rng, "jbb", cfg.n_cores, events_per_core=200)
        system = CMPSystem(cfg, trace=trace)
        result = system.run(200, warmup_events=100, config_name="fuzz-test")
        assert result.instructions > 0


class TestFuzzOne:
    # Seeds that historically exposed real bugs, at the parameters under
    # which they originally failed (events_per_core=400):
    #   * 2, 5, 8   — AuditViolation: AdaptiveController bumped a
    #     configured startup degree of 0 up to 1 (trickle/probe paths),
    #     driving PrefetchStats.throttled negative and issuing
    #     prefetches from an "off" prefetcher.
    #   * 18, 22, 23 — AuditViolation: an L2 prefetch triggered inside a
    #     demand fill evicted the just-fetched line before the L1 insert,
    #     leaving an L1 line with no L2 backing (inclusion violation).
    # Both are fixed (adaptive.py early return; hierarchy.py re-probe
    # guards); these seeds must stay clean forever.
    REGRESSION_SEEDS = (2, 5, 8, 18, 22, 23)

    @pytest.mark.parametrize("seed", REGRESSION_SEEDS)
    def test_pinned_regression_seeds_clean(self, seed):
        failure = fuzz_one(
            seed, events_per_core=400, check_properties=False, shrink=False
        )
        assert failure is None, f"seed {seed} regressed: {failure.stage}: {failure.error}"

    def test_seed_14_compression_noop_ignores_short_line_labels(self):
        # Seed 14 draws compression_noop with attribution on: the
        # attr_comp_fills / attr_comp_bytes_saved rows label fills stored
        # short (like l2.compressed_hits) and legitimately differ; the
        # rows describing behaviour must still match.
        assert "extra.attr_comp_fills" in COMPRESSION_NOOP_IGNORE
        assert "extra.attr_comp_bytes_saved" in COMPRESSION_NOOP_IGNORE
        assert "extra.attr_comp_avoided_hits" not in COMPRESSION_NOOP_IGNORE
        assert "extra.attr_comp_expansion_evictions" not in COMPRESSION_NOOP_IGNORE
        failure = fuzz_one(14, shrink=False)
        assert failure is None, f"seed 14: {failure.stage}: {failure.error}"

    def test_fresh_seeds_clean_with_properties(self):
        for seed in (0, 1, 3):
            failure = fuzz_one(
                seed, events_per_core=300, check_properties=True, shrink=False
            )
            assert failure is None, f"seed {seed}: {failure.stage}: {failure.error}"

    def test_deterministic_case_generation(self):
        rng_a, rng_b = random.Random(0x5EED ^ 42), random.Random(0x5EED ^ 42)
        cfg_a, cfg_b = random_config(rng_a), random_config(rng_b)
        assert cfg_a == cfg_b
        wl = rng_a.choice(all_names())
        assert wl == rng_b.choice(all_names())
        ta = random_trace(rng_a, wl, cfg_a.n_cores, 100)
        tb = random_trace(rng_b, wl, cfg_b.n_cores, 100)
        assert ta.per_core_events == tb.per_core_events


class TestCorpus:
    def _synthetic_failure(self) -> FuzzFailure:
        rng = random.Random(0x5EED ^ 3)
        config = random_config(rng)
        workload = rng.choice(all_names())
        trace = random_trace(rng, workload, config.n_cores, 200)
        return FuzzFailure(
            seed=3,
            stage="AuditViolation",
            error="synthetic",
            config=asdict(config),
            trace_events=[list(map(list, ev)) for ev in trace.per_core_events],
            workload=workload,
            events_per_core=200,
        )

    def test_save_and_reproduce_round_trip(self, tmp_path):
        failure = self._synthetic_failure()
        path = save_failure(failure, corpus=tmp_path)
        assert path.exists()
        assert failure.path == str(path)
        data = json.loads(path.read_text())
        assert data["seed"] == 3
        assert data["workload"] == failure.workload
        # The synthetic "failure" wraps a healthy case, so replaying it
        # must run the full verification stack cleanly (no exception) —
        # proving the config + trace encode/decode is faithful.
        reproduce(path)

    def test_reproduce_rejects_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            reproduce(tmp_path / "does-not-exist.json")


class TestRunFuzz:
    def test_clean_batch(self, tmp_path):
        report = run_fuzz(
            4,
            start_seed=0,
            events_per_core=200,
            check_properties=False,
            corpus=tmp_path,
        )
        assert report.cases == 4
        assert report.failures == []
        assert not report.budget_exhausted
        assert list(tmp_path.iterdir()) == []

    def test_budget_stops_early(self, tmp_path):
        report = run_fuzz(
            10_000,
            budget_s=0.0,
            start_seed=0,
            events_per_core=200,
            check_properties=False,
            corpus=tmp_path,
        )
        assert report.budget_exhausted
        assert report.cases == 0
