"""Parallel runner + persistent disk cache: determinism and round-trips.

The contract under test: a parallel sweep returns *exactly* the results
a serial sweep would (same cycles, same counters, same ordering), a
result that round-trips through the disk cache is bit-identical to a
fresh simulation, and a crashing grid point is captured per-point
instead of killing the sweep.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro import settings
from repro.core import diskcache, durable
from repro.core.diskcache import DiskCache
from repro.core.experiment import (
    clear_cache,
    run_matrix,
    run_point,
    run_seeds,
)
from repro.core.runner import ParallelRunner, PointError, default_jobs
from repro.core.sweep import Sweep
from repro.report.export import result_from_dict, result_to_full_dict

FAST = dict(events=200, warmup=100, scale=16, n_cores=2)


def _same_result(a, b) -> bool:
    """Bit-exact equality on the metrics determinism cares about."""
    return (
        repr(a.elapsed_cycles) == repr(b.elapsed_cycles)
        and a.instructions == b.instructions
        and a.l1d.demand_misses == b.l1d.demand_misses
        and a.l2.demand_misses == b.l2.demand_misses
        and a.link.bytes_total == b.link.bytes_total
        and repr(a.extra["memory_stall_cycles"]) == repr(b.extra["memory_stall_cycles"])
    )


class TestFullSerialization:
    def test_round_trip_is_lossless(self):
        result = run_point("zeus", "pref_compr", **FAST, use_cache=False)
        back = result_from_dict(json.loads(json.dumps(result_to_full_dict(result))))
        assert _same_result(result, back)
        assert back.workload == result.workload
        assert back.config_name == result.config_name
        assert back.prefetch["l2"].issued == result.prefetch["l2"].issued
        assert back.taxonomy["l2"].issued == result.taxonomy["l2"].issued
        assert back.latency["l1d"] == result.latency["l1d"]
        assert back.compression.samples == result.compression.samples

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            result_from_dict({"schema": -1})


class TestDiskCache:
    def test_fresh_vs_disk_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        fresh = run_point("zeus", "base", **FAST)
        cached = run_point("zeus", "base", **FAST)
        assert _same_result(fresh, cached)
        assert DiskCache().stats()["entries"] == 1

    def test_opt_out_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CACHE", "0")
        run_point("zeus", "base", **FAST)
        assert settings.get("REPRO_CACHE") is False
        assert DiskCache().stats()["entries"] == 0

    def test_corrupt_entry_degrades_to_recompute(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        fresh = run_point("zeus", "base", **FAST)
        store = DiskCache()
        (path,) = [
            os.path.join(d, f)
            for d, _, files in os.walk(store.root)
            for f in files
        ]
        with open(path, "w") as fh:
            fh.write("not json{")
        recomputed = run_point("zeus", "base", **FAST)
        assert _same_result(fresh, recomputed)

    def test_clear_and_stats(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        run_point("zeus", "base", **FAST)
        run_point("zeus", "pref", **FAST)
        store = DiskCache()
        assert store.stats()["entries"] == 2
        assert store.stats()["bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["entries"] == 0

    def test_clear_cache_disk_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        run_point("zeus", "base", **FAST)
        assert DiskCache().stats()["entries"] == 1
        clear_cache()  # empties the disk cache, the only result store
        assert DiskCache().stats()["entries"] == 0

    def test_key_distinguishes_configs(self):
        from repro.core.experiment import make_config

        base = make_config("base", n_cores=2, scale=16)
        pref = make_config("pref", n_cores=2, scale=16)
        k = diskcache.point_key
        assert k(base, "zeus", 0, 200, 100) != k(pref, "zeus", 0, 200, 100)
        assert k(base, "zeus", 0, 200, 100) != k(base, "zeus", 1, 200, 100)
        assert k(base, "zeus", 0, 200, 100) != k(base, "oltp", 0, 200, 100)
        assert k(base, "zeus", 0, 200, 100) == k(base, "zeus", 0, 200, 100)

    def test_read_entry_rejects_garbage(self, tmp_path):
        """The entry reader refuses every malformed file with one
        :class:`CorruptFile`."""
        magic, version = diskcache.ENTRY_MAGIC, diskcache.CACHE_FORMAT_VERSION
        head = durable._HEAD.pack
        cases = {
            "empty": b"",
            "short": magic[:2],
            "bad-magic": b"XXXX" + b"\x00" * 64,
            "bad-meta": head(magic, version, 5) + b"not j",
            "bad-version": head(magic, 99, 2) + b"{}",
            # The previous format version is refused by version, before
            # the payload is parsed.
            "old-version": head(magic, version - 1, 2) + b"{}",
        }
        for name, blob in cases.items():
            path = tmp_path / name
            path.write_bytes(blob)
            with pytest.raises(durable.CorruptFile) as info:
                diskcache.read_entry(str(path))
            if name.endswith("version"):
                assert "unsupported cache entry version" in str(info.value)
        result = run_point("zeus", "base", **FAST, use_cache=False)
        cache = DiskCache(str(tmp_path / "cache"))
        cache.put("ab" + "0" * 62, result)
        flipped = cache.path_for("ab" + "0" * 62)
        diskcache.read_entry(flipped)
        data = bytearray(Path(flipped).read_bytes())
        data[-1] ^= 0xFF
        Path(flipped).write_bytes(bytes(data))
        with pytest.raises(durable.CorruptFile, match="checksum"):
            diskcache.read_entry(flipped)

    def test_stale_tmp_from_killed_writer_is_swept(self, tmp_path):
        """A writer killed mid-write leaves a temp file no lookup sees;
        opening the cache removes it once it is older than the stale
        threshold, and leaves a fresh one alone."""
        root = tmp_path / "cache"
        (root / "ab").mkdir(parents=True)
        stale = root / "ab" / ("ab" + "0" * 62 + ".rpce.tmp.4242")
        fresh = root / "ab" / ("ab" + "1" * 62 + ".rpce.tmp.4243")
        for path in (stale, fresh):
            path.write_bytes(b"RPCE half an entry")
        aged = time.time() - durable.STALE_TMP_S - 60
        os.utime(stale, (aged, aged))
        durable._SWEPT_ROOTS.discard(str(root))
        DiskCache(str(root))
        assert not stale.exists()
        assert fresh.exists()


class TestParallelRunner:
    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        assert ParallelRunner().jobs == 3

    def test_serial_vs_parallel_identical(self, tmp_path, monkeypatch):
        """The 3-dim acceptance sweep: 2 workloads x 4 keys x 2 seeds."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

        def build():
            return (
                Sweep()
                .dimension("workload", ["zeus", "jbb"])
                .dimension("key", ["base", "pref", "compr", "pref_compr"])
                .dimension("seed", [0, 1])
            )

        serial = build().run(**FAST_SWEEP)
        clear_cache()
        parallel = build().run(**FAST_SWEEP, jobs=4)
        assert not parallel.errors
        assert set(serial.points) == set(parallel.points)
        for key in serial.points:
            assert _same_result(serial.points[key], parallel.points[key])

    def test_parallel_warm_cache_second_pass(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        first = run_matrix(["zeus"], ["base", "pref"], jobs=2, **FAST)
        entries = DiskCache().stats()["entries"]
        assert entries == 2
        second = run_matrix(["zeus"], ["base", "pref"], **FAST)
        assert DiskCache().stats()["entries"] == entries  # no new simulations
        for key in first:
            assert _same_result(first[key], second[key])

    def test_run_seeds_parallel(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        serial = run_seeds("zeus", "base", seeds=2, **FAST)
        clear_cache()
        parallel = run_seeds("zeus", "base", seeds=2, jobs=2, **FAST)
        assert [r.seed for r in parallel] == [0, 1]
        for a, b in zip(serial, parallel):
            assert _same_result(a, b)

    def test_error_captured_per_point(self):
        runner = ParallelRunner(jobs=2)
        points = [
            (("zeus", "base"), dict(FAST)),
            (("zeus", "no_such_config"), dict(FAST)),  # raises KeyError
        ]
        outcomes = runner.run_points(points)
        assert not isinstance(outcomes[0], PointError)
        assert isinstance(outcomes[1], PointError)
        assert outcomes[1].key == "no_such_config"
        assert "KeyError" in outcomes[1].error
        assert outcomes[1].traceback

    def test_sweep_records_errors_without_aborting(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        sweep = (
            Sweep()
            .dimension("workload", ["zeus"])
            .dimension("key", ["base", "no_such_config"])
        )
        results = sweep.run(**FAST_SWEEP, jobs=2)
        assert len(results.points) == 1
        assert len(results.errors) == 1
        ((bad_key, error),) = results.errors.items()
        assert "no_such_config" in bad_key
        assert isinstance(error, PointError)

    def test_progress_callback_counts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        seen = []
        ParallelRunner(jobs=2).run_points(
            [(("zeus", "base"), dict(FAST)), (("zeus", "pref"), dict(FAST))],
            progress=lambda done, total: seen.append((done, total)),
        )
        assert sorted(seen) == [(1, 2), (2, 2)]


FAST_SWEEP = dict(events=FAST["events"], warmup=FAST["warmup"],
                  scale=FAST["scale"], n_cores=FAST["n_cores"])


class TestCacheCLI:
    def test_cache_stats_and_clear(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        run_point("zeus", "base", **FAST)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:    1" in out
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert DiskCache().stats()["entries"] == 0
