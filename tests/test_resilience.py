"""Resilient sweep execution, end to end under injected faults.

Every fault class the injector knows (worker kill, hang, cache
corruption) is driven through the real runner / disk cache / sweep
stack, and the recovery contract is asserted each time:
the sweep completes, every point is accounted for exactly once, results
are bit-identical to a clean run, and the failure shows up in telemetry
rather than vanishing.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import faults
from repro.cli import main
from repro.core import runner as runner_mod
from repro.core.diskcache import DiskCache
from repro.core import diskcache as diskcache_mod
from repro.core.experiment import run_point
from repro.core.runner import ParallelRunner, PointError, default_jobs
from repro.core.sweep import Sweep
from repro.obs.telemetry import close_sinks, read_records
from repro.report.export import result_fingerprint

ROOT = Path(__file__).resolve().parents[1]
FAST = dict(events=200, warmup=100, scale=16, n_cores=2)
EIGHT = [(w, k) for w in ("zeus", "jbb")
         for k in ("base", "pref", "compr", "pref_compr")]


def _points(pairs):
    return [((w, k), dict(FAST, use_cache=False)) for w, k in pairs]


def _expected(pairs):
    return [
        result_fingerprint(run_point(w, k, **FAST, use_cache=False))
        for w, k in pairs
    ]


def _sweep():
    return (Sweep()
            .dimension("workload", ["zeus", "jbb"])
            .dimension("key", ["base", "pref"]))


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ("REPRO_FAULTS", "REPRO_POINT_TIMEOUT", "REPRO_TELEMETRY",
                "REPRO_JOBS"):
        monkeypatch.delenv(var, raising=False)
    faults.reset()
    yield
    faults.reset()
    close_sinks()


class TestTransientRetry:
    """Only a transient failure, a lost worker, is retried."""

    def test_deterministic_exception_not_retried(self, monkeypatch, tmp_path):
        tele = str(tmp_path / "t.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        points = [(("zeus", "no_such_config"), dict(FAST, use_cache=False))]
        outcomes = ParallelRunner(jobs=1).run_points(points)
        assert isinstance(outcomes[0], PointError)
        assert outcomes[0].kind == "error"
        assert outcomes[0].attempts == 1  # same input fails the same way
        assert not [r for r in read_records(tele) if r["kind"] == "retry"]


class TestLostWorkers:
    def test_kill_mid_submission_every_point_once(self, monkeypatch, tmp_path):
        """Satellite: a worker killed mid-sweep breaks the pool; the pool
        respawns, the point retries, and all 8 points land exactly once."""
        tele = str(tmp_path / "t.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        monkeypatch.setenv("REPRO_FAULTS", "kill@2")
        finalized = []
        outcomes = ParallelRunner(jobs=2).run_points(
            _points(EIGHT), progress=lambda done, total: finalized.append(done)
        )
        assert len(outcomes) == len(EIGHT)
        assert not any(isinstance(o, PointError) for o in outcomes)
        # Finalized once each, no dupes (a point finalized twice would
        # leave another's slot empty, which the fingerprints below catch).
        assert finalized == list(range(1, len(EIGHT) + 1))
        assert [result_fingerprint(o) for o in outcomes] == _expected(EIGHT)
        records = read_records(tele)
        sweep_record = [r for r in records if r["kind"] == "sweep"][-1]
        assert sweep_record["restarts"] >= 1
        assert sweep_record["retries"] >= 1
        assert sweep_record["errors"] == 0
        assert [r for r in records if r["kind"] == "pool-restart"]

    def test_lost_point_resubmitted_without_sleeping(self, monkeypatch, tmp_path):
        """A point lost with its worker goes straight back on the queue of
        the respawned pool: nothing sleeps between respawn and resubmit."""
        tele = str(tmp_path / "t.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        monkeypatch.setenv("REPRO_FAULTS", "kill@0")
        sleeps = []
        monkeypatch.setattr(runner_mod, "time", SimpleNamespace(
            perf_counter=time.perf_counter, sleep=sleeps.append,
        ))
        pairs = [("zeus", "base"), ("zeus", "pref")]
        outcomes = ParallelRunner(jobs=2).run_points(_points(pairs))
        assert sleeps == []
        assert [result_fingerprint(o) for o in outcomes] == _expected(pairs)
        # The broken pool may take the other in-flight point down too.
        retries = {(r["index"], r["attempt"], r["fault"])
                   for r in read_records(tele) if r["kind"] == "retry"}
        assert (0, 1, "lost-worker") in retries
        assert retries <= {(0, 1, "lost-worker"), (1, 1, "lost-worker")}

    def test_exhaustion_reports_lost_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill@*x99")
        outcomes = ParallelRunner(jobs=2).run_points(
            _points([("zeus", "base"), ("zeus", "pref")])
        )
        for outcome in outcomes:
            assert isinstance(outcome, PointError)
            assert outcome.kind == "lost-worker"
            assert outcome.attempts == 3  # first try + MAX_RETRIES retries
            assert "worker process terminated abruptly" in outcome.traceback


class TestTimeouts:
    def test_hung_point_times_out_others_complete(self, monkeypatch, tmp_path):
        tele = str(tmp_path / "t.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        monkeypatch.setenv("REPRO_FAULTS", "hang(60)@0")
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "1")
        pairs = [("zeus", "base"), ("zeus", "pref"), ("zeus", "compr")]
        started = time.monotonic()
        outcomes = ParallelRunner(jobs=2).run_points(_points(pairs))
        elapsed = time.monotonic() - started
        assert elapsed < 30  # nothing waited for the 60 s hang
        hung = outcomes[0]
        assert isinstance(hung, PointError)
        assert hung.kind == "timeout"
        assert hung.attempts == 1  # a deterministic hang would just recur
        healthy = [result_fingerprint(o) for o in outcomes[1:]]
        assert healthy == _expected(pairs[1:])
        records = read_records(tele)
        assert [r for r in records if r["kind"] == "point-timeout"]
        sweep_record = [r for r in records if r["kind"] == "sweep"][-1]
        assert sweep_record["timeouts"] == 1 and sweep_record["errors"] == 1


class TestSelfHealingCache:
    def test_injected_corruption_quarantined_then_healed(
        self, monkeypatch, tmp_path
    ):
        tele = str(tmp_path / "t.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_FAULTS", "corrupt@0")
        first = run_point("zeus", "base", **FAST)   # stored with a bad checksum
        second = run_point("zeus", "base", **FAST)  # corrupt -> quarantine -> resim
        third = run_point("zeus", "base", **FAST)   # clean hit
        assert (result_fingerprint(first)
                == result_fingerprint(second)
                == result_fingerprint(third))
        store = DiskCache()
        stats = store.stats()
        assert stats["entries"] == 1 and stats["quarantined"] == 1
        outcomes = [r["outcome"] for r in read_records(tele)
                    if r["kind"] == "diskcache"]
        assert outcomes == ["miss", "store", "corrupt", "store", "hit"]

    def test_get_outcome_regression(self, monkeypatch, tmp_path):
        """Satellite: pin the three DiskCache.get telemetry outcomes."""
        tele = str(tmp_path / "t.jsonl")
        result = run_point("zeus", "base", **FAST, use_cache=False)
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        store = DiskCache(str(tmp_path / "cache"))
        key = "ab" + "0" * 62
        assert store.get(key) is None               # miss
        store.put(key, result)                      # store
        cached = store.get(key)                     # hit
        assert cached is not None
        assert result_fingerprint(cached) == result_fingerprint(result)
        path = store.path_for(key)
        with open(path, "rb") as fh:
            entry = bytearray(fh.read())
        entry[-1] ^= 0xFF  # silent bit rot in the payload: bad checksum
        with open(path, "wb") as fh:
            fh.write(bytes(entry))
        assert store.get(key) is None               # corrupt, not miss
        assert not os.path.exists(path)             # moved aside ...
        assert os.path.exists(
            os.path.join(store.quarantine_dir(), os.path.basename(path))
        )                                           # ... into quarantine
        outcomes = [r["outcome"] for r in read_records(tele)
                    if r["kind"] == "diskcache"]
        assert outcomes == ["miss", "store", "hit", "corrupt"]

    def test_put_failure_emits_and_cleans_tmp(self, monkeypatch, tmp_path):
        """Satellite: a serialization failure in put must not raise, must
        not leave temp-file litter, and must be telemetry-visible."""
        tele = str(tmp_path / "t.jsonl")
        result = run_point("zeus", "base", **FAST, use_cache=False)
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        store = DiskCache(str(tmp_path / "cache"))
        monkeypatch.setattr(
            diskcache_mod, "result_to_full_dict", lambda r: {"bad": object()}
        )
        store.put("cd" + "0" * 62, result)  # TypeError inside, swallowed
        leftovers = [
            name
            for _dir, _subdirs, files in os.walk(store.root)
            for name in files
        ]
        assert leftovers == []
        records = [r for r in read_records(tele) if r["kind"] == "diskcache"]
        assert records[-1]["outcome"] == "store-failed"
        assert "TypeError" in records[-1]["error"]

    def test_verify_quarantines_and_sweeps_tmp(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        run_point("zeus", "base", **FAST)
        run_point("zeus", "pref", **FAST)
        store = DiskCache()
        paths = sorted(
            os.path.join(d, f)
            for d, _s, files in os.walk(store.root)
            for f in files
        )
        assert len(paths) == 2
        with open(paths[0], "w", encoding="utf-8") as fh:
            fh.write("torn{write")
        stale = paths[1] + ".tmp.12345"
        with open(stale, "w", encoding="utf-8") as fh:
            fh.write("{}")
        report = store.verify()
        assert report == {"checked": 2, "ok": 1, "corrupt": 1, "tmp_swept": 1}
        assert not os.path.exists(stale)
        assert store.verify() == {"checked": 1, "ok": 1, "corrupt": 0,
                                  "tmp_swept": 0}


class TestProgressIsolation:
    def test_progress_exception_warns_once(self, monkeypatch):
        """Satellite: a broken user callback downgrades to one warning."""
        monkeypatch.setattr(runner_mod, "_WARNED_PROGRESS", False)
        calls = []

        def broken_progress(done, total):
            calls.append(done)
            raise ValueError("renderer bug")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes = ParallelRunner(jobs=1).run_points(
                _points([("zeus", "base"), ("zeus", "pref")]),
                progress=broken_progress,
            )
        assert not any(isinstance(o, PointError) for o in outcomes)
        assert calls == [1, 2]  # still driven after the first failure
        relevant = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)
                    and "progress callback" in str(w.message)]
        assert len(relevant) == 1


class TestKillAndResume:
    """The result cache is the sweep checkpoint: every completed point is
    stored the moment it completes, so a rerun restores it."""

    def test_interrupt_then_resume_is_bit_identical(self, monkeypatch, tmp_path):
        """The acceptance centerpiece: kill a sweep partway, resume it,
        and get clean-run fingerprints while re-simulating only the
        missing points."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clean = _sweep().run(jobs=1, **FAST, use_cache=False)
        expected = {k: result_fingerprint(v) for k, v in clean.points.items()}
        assert len(expected) == 4

        seen = {"n": 0}

        def interrupt_after_two(done, total):
            seen["n"] += 1
            if seen["n"] == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _sweep().run(jobs=1, progress=interrupt_after_two, **FAST)
        assert DiskCache().stats()["entries"] == 2

        tele = str(tmp_path / "resume.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        final = _sweep().run(jobs=1, **FAST)
        assert {k: result_fingerprint(v) for k, v in final.points.items()} == expected
        sources = [r["source"] for r in read_records(tele) if r["kind"] == "point"]
        # Exactly the points the store lacked were simulated.
        assert sorted(sources) == ["disk", "disk", "sim", "sim"]

    def test_parallel_journal_resume_resimulates_nothing(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        first = _sweep().run(jobs=2, **FAST)
        assert len(first.points) == 4 and not first.errors
        assert DiskCache().stats()["entries"] == 4  # stored by the workers
        expected = {k: result_fingerprint(v) for k, v in first.points.items()}

        tele = str(tmp_path / "resume.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        second = _sweep().run(jobs=2, **FAST)
        assert {k: result_fingerprint(v) for k, v in second.points.items()} == expected
        sources = [r["source"] for r in read_records(tele) if r["kind"] == "point"]
        assert sources == ["disk"] * 4  # full resume: zero re-simulation

    def test_parallel_interrupt_stops_the_workers(self, monkeypatch, tmp_path):
        """Ctrl-C under two workers terminates and joins them: none is
        left to finish its in-flight point after the sweep has raised,
        and the points stored before the interrupt still load."""
        import multiprocessing

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

        def interrupt_after_first(done, total):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _sweep().run(jobs=2, progress=interrupt_after_first, **FAST)
        assert multiprocessing.active_children() == []
        stored = DiskCache().stats()["entries"]
        assert 1 <= stored < 4

        tele = str(tmp_path / "resume.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        final = _sweep().run(jobs=2, **FAST)
        assert len(final.points) == 4 and not final.errors
        sources = [r["source"] for r in read_records(tele) if r["kind"] == "point"]
        assert sorted(sources) == ["disk"] * stored + ["sim"] * (4 - stored)

    def test_journaled_error_point_is_retried_on_resume(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        # A killed worker would take the other in-flight point down with
        # it; a timed-out one leaves that point a free resubmission.
        monkeypatch.setenv("REPRO_FAULTS", "hang(60)@0")
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "1")
        sweep = (Sweep().dimension("workload", ["zeus", "jbb"])
                 .dimension("key", ["base"]))
        partial = sweep.run(jobs=2, **FAST)
        assert len(partial.errors) == 1 and len(partial.points) == 1
        assert DiskCache().stats()["entries"] == 1  # an error is never stored

        monkeypatch.delenv("REPRO_FAULTS")
        monkeypatch.delenv("REPRO_POINT_TIMEOUT")
        faults.reset()
        tele = str(tmp_path / "resume.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        sweep2 = (Sweep().dimension("workload", ["zeus", "jbb"])
                  .dimension("key", ["base"]))
        final = sweep2.run(jobs=2, **FAST)
        assert len(final.points) == 2 and not final.errors
        sources = [r["source"] for r in read_records(tele) if r["kind"] == "point"]
        assert sorted(sources) == ["disk", "sim"]  # only the failed point reruns


class TestCLIResilience:
    def test_repro_jobs_non_integer_is_readable_exit_2(self, monkeypatch, capsys):
        """Satellite: ``REPRO_JOBS=max`` gets one readable line, not a
        traceback."""
        monkeypatch.setenv("REPRO_JOBS", "max")
        with pytest.raises(ValueError) as exc:
            default_jobs()
        assert "REPRO_JOBS" in str(exc.value) and "'max'" in str(exc.value)
        rc = main(["sweep", "--workloads", "zeus", "--configs", "base,pref",
                   "--jobs", "0", "--quiet"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error: REPRO_JOBS must be an integer >= 1, got 'max'" in captured.err

    def test_cache_verify_exit_codes(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        run_point("zeus", "base", **FAST)
        assert main(["cache", "verify"]) == 0
        store = DiskCache()
        (path,) = [
            os.path.join(d, f)
            for d, _s, files in os.walk(store.root)
            for f in files
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("rot")
        capsys.readouterr()
        assert main(["cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "corrupt:    1" in out
        assert main(["cache", "verify"]) == 0  # quarantined, now clean
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "quarantined:" in capsys.readouterr().out

    @pytest.mark.parametrize("env, first, cut, stored, simulated", [
        # --resume keeps the store on (and written) under REPRO_CACHE=0.
        ({"REPRO_CACHE": "0"}, ["--resume"], False, 2, 0),
        # With the cache on, a plain sweep is already checkpointed.
        ({}, [], False, 2, 0),
        # A damaged entry is quarantined and recomputed.
        ({"REPRO_CACHE": "0"}, ["--resume"], True, 2, 1),
    ], ids=["cache-off", "cache-on", "cut-entry"])
    def test_sweep_resume_round_trip_identical_stdout(
        self, monkeypatch, capsys, tmp_path, env, first, cut, stored, simulated,
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        argv = ["sweep", "--workloads", "zeus", "--configs", "base,pref",
                "--events", "200", "--warmup", "100", "--scale", "16",
                "--cores", "2", "--jobs", "1", "--quiet"]
        assert main(argv + first) == 0
        first_run = capsys.readouterr()
        store = DiskCache()
        assert store.stats()["entries"] == stored
        if cut:
            entry = Path(store.path_for(_entry_keys(store)[0]))
            entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        tele = str(tmp_path / "resume.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY", tele)
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr()
        assert second.out == first_run.out
        resuming = f"resuming: {stored} completed point(s) loaded"
        assert (resuming in second.err) == bool(stored)
        sources = [r["source"] for r in read_records(tele) if r["kind"] == "point"]
        assert sources.count("sim") == simulated
        assert sources.count("disk") == stored - int(cut)
        assert DiskCache().stats()["quarantined"] == int(cut)


def _entry_keys(store):
    return sorted(
        name[: -len(diskcache_mod.ENTRY_SUFFIX)]
        for _dir, _subdirs, files in os.walk(store.root)
        for name in files
        if name.endswith(diskcache_mod.ENTRY_SUFFIX)
    )


class TestHungPointExit:
    def test_process_exits_soon_after_the_timeout(self, tmp_path):
        """The hung worker is terminated with its pool, so the sweep exits
        right after reporting the timeout, not when the hang ends."""
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", ""),
            REPRO_FAULTS="hang(60)@0",
            REPRO_POINT_TIMEOUT="2",
            REPRO_CACHE="0",
        )
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--workloads", "zeus",
             "--configs", "base,pref", "--events", "200", "--warmup", "100",
             "--scale", "16", "--cores", "2", "--jobs", "2", "--quiet"],
            env=env, cwd=str(tmp_path), capture_output=True, text=True,
            timeout=120,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 1, proc.stderr
        assert "[timeout]" in proc.stderr
        assert elapsed < 30, f"exited {elapsed:.1f}s after start"


def _raise(*_args, **_kwargs):
    raise RuntimeError("serializer bug")


def _unserializable(*_args, **_kwargs):
    return {"ok": 1, "bad": object()}


def _write_trace(path, monkeypatch):
    from repro.obs.trace import Tracer

    tracer = Tracer(1, 1)
    monkeypatch.setattr(tracer, "to_dict", _unserializable)
    tracer.write(path)


def _write_metrics(path, monkeypatch):
    from repro.obs.metrics import IntervalSampler

    sampler = IntervalSampler(100)
    monkeypatch.setattr(sampler, "to_jsonl", _raise)
    sampler.write(path)


def _write_attribution(path, monkeypatch):
    from repro.obs.attribution import AttributionTracker
    from repro.params import SystemConfig

    tracker = AttributionTracker(SystemConfig(), lambda addr: 0)
    monkeypatch.setattr(tracker, "to_dict", _unserializable)
    tracker.write(path)


def _write_workload(path, monkeypatch):
    from repro.workloads import custom
    from repro.workloads.registry import get_spec

    monkeypatch.setattr(custom, "spec_to_dict", _unserializable)
    custom.save_spec(get_spec("zeus"), path)


def _write_fuzz_corpus(path, monkeypatch):
    from repro.verify.fuzz import save_failure

    failure = SimpleNamespace(seed=7, stage="oracle", to_json=_raise, path=None)
    save_failure(failure, Path(path).parent)


def _write_matrix_csv(path, monkeypatch):
    from repro.report.matrix import MatrixReport

    monkeypatch.setattr(MatrixReport, "to_csv", _raise)
    main(["matrix", "--workloads", "chase", "--prefetchers", "none",
          "--schemes", "none", "--quiet", "-o", path, "--events", "100",
          "--warmup", "100", "--scale", "16", "--cores", "2"])


@pytest.mark.parametrize("write, name", [
    (_write_trace, "trace.json"),
    (_write_metrics, "metrics.jsonl"),
    (_write_attribution, "why.json"),
    (_write_workload, "spec.json"),
    (_write_fuzz_corpus, "crash-seed7-oracle.json"),
    (_write_matrix_csv, "matrix.csv"),
])
def test_failed_artifact_write_keeps_the_previous_file(
    write, name, tmp_path, monkeypatch
):
    """An ``-o`` artifact is replaced whole or not at all: a serializer
    that raises mid-write leaves the previous file byte-identical and
    no temp file behind."""
    path = tmp_path / name
    path.write_bytes(b"previous artifact\n")
    with pytest.raises((RuntimeError, TypeError)):
        write(str(path), monkeypatch)
    assert path.read_bytes() == b"previous artifact\n"
    assert not list(tmp_path.glob("*.tmp.*"))
