"""The observability layer must observe without perturbing.

Tracing and interval metrics ride inside the simulator's hot paths, so
the central guarantee — proven here across the full workload x config
matrix — is that results are bit-identical (same ``result_fingerprint``)
with them on or off.  The rest of the suite checks the artifacts
themselves: the Chrome trace-event schema contract, sampler determinism
across ``reset_stats``, the config gates, the live sweep progress
renderer, and the CLI entry points.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.experiment import CONFIG_FEATURES, make_config
from repro.core.system import CMPSystem
from repro.obs.metrics import IntervalSampler, MetricsRegistry
from repro.obs.progress import SweepProgress, default_progress
from repro.obs.trace import Tracer, validate_trace
from repro.params import SystemConfig
from repro.report.export import result_fingerprint
from repro.workloads.registry import all_names

from dataclasses import replace


def _observed_config(key: str) -> SystemConfig:
    cfg = make_config(key, n_cores=2, scale=16)
    return replace(cfg, trace=True, metrics=True, metrics_interval=1000)


# ---------------------------------------------------------------------------
# read-only guarantee: the full 8x8 matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(all_names()))
@pytest.mark.parametrize("key", sorted(CONFIG_FEATURES))
def test_observability_never_changes_results(workload, key):
    """Same point, tracing+metrics off vs on: bit-identical fingerprint."""
    plain_cfg = make_config(key, n_cores=2, scale=16)
    plain = CMPSystem(plain_cfg, workload, seed=5).run(400, warmup_events=200)
    observed_sys = CMPSystem(_observed_config(key), workload, seed=5)
    observed = observed_sys.run(400, warmup_events=200)
    assert result_fingerprint(plain) == result_fingerprint(observed)
    # The observed run actually observed something.
    assert observed_sys.tracer is not None and observed_sys.tracer.events
    assert observed_sys.sampler is not None and observed_sys.sampler.samples > 0


# ---------------------------------------------------------------------------
# trace schema
# ---------------------------------------------------------------------------


def _traced_run(key="adaptive_compr", workload="zeus", events=600):
    system = CMPSystem(_observed_config(key), workload, seed=1)
    system.run(events, warmup_events=events // 2)
    return system


def test_trace_schema_valid_end_to_end():
    system = _traced_run()
    data = system.tracer.to_dict()
    assert validate_trace(data) == []
    # JSON-serialisable as-is (what Perfetto loads).
    json.dumps(data)


def test_trace_events_sorted_and_paired():
    data = _traced_run().tracer.to_dict()
    body = [e for e in data["traceEvents"] if e["ph"] != "M"]
    stamps = [e["ts"] for e in body]
    assert stamps == sorted(stamps)
    # Link B/E events pair up exactly.
    begins = sum(1 for e in body if e["ph"] == "B")
    ends = sum(1 for e in body if e["ph"] == "E")
    assert begins == ends > 0


def test_trace_tid_mapping_stable_and_named():
    a = _traced_run(events=400).tracer.to_dict()
    b = _traced_run(events=400).tracer.to_dict()

    def name_map(data):
        return {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e.get("name") == "thread_name"
        }

    assert name_map(a) == name_map(b)
    named = set(name_map(a))
    used = {(e["pid"], e["tid"]) for e in a["traceEvents"] if e["ph"] != "M"}
    assert used <= named


def test_trace_has_expected_span_kinds():
    names = {e.get("name") for e in _traced_run().tracer.to_dict()["traceEvents"]}
    for expected in ("l1d_miss", "busy", "data", "demand", "phase.measure"):
        assert expected in names, f"missing {expected!r} events"


def test_validate_trace_flags_broken_data():
    assert validate_trace({}) == ["traceEvents is missing or not a list"]
    bad = {
        "traceEvents": [
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name", "args": {"name": "x"}},
            {"ph": "M", "pid": 1, "tid": 7, "name": "thread_name", "args": {"name": "t"}},
            {"ph": "X", "pid": 1, "tid": 7, "name": "a", "ts": 10.0, "dur": -1.0},
            {"ph": "E", "pid": 1, "tid": 7, "ts": 5.0},
            {"ph": "B", "pid": 1, "tid": 7, "name": "b", "ts": 6.0},
        ]
    }
    problems = "\n".join(validate_trace(bad))
    assert "bad dur" in problems
    assert "unsorted" in problems
    assert "E without open B" in problems
    assert "unmatched B" in problems


def test_tracer_limit_counts_drops():
    tracer = Tracer(1, 1, limit=3)
    for i in range(5):
        tracer.span(tracer.core_tid(0), "x", float(i), 1.0)
    assert len(tracer.events) == 3
    assert tracer.dropped == 2
    assert tracer.to_dict()["otherData"]["dropped_events"] == 2


def test_link_pair_is_kept_or_dropped_whole_at_the_limit():
    """A buffer with room for one more event drops the link's B/E pair
    whole; keeping the B alone left an unmatched pair behind."""
    tracer = Tracer(1, 1, limit=2)
    tracer.span(tracer.core_tid(0), "x", 0.0, 1.0)
    tracer.on_link_data(1.0, 3.0, 72, 0.0)
    assert len(tracer.events) == 1 and tracer.dropped == 2
    assert validate_trace(tracer.to_dict()) == []
    tracer.limit = 3
    tracer.on_link_data(4.0, 6.0, 72, 0.0)
    assert [e[0] for e in tracer.events] == ["X", "B", "E"]
    assert validate_trace(tracer.to_dict()) == []


def test_adaptive_hook_emits_instants_and_counter_samples():
    """The throttle-feedback event, through the hub: instants always, a
    counter sample only when the counter moved."""
    from repro.obs.observers import Observers

    tracer = Tracer(1, 1)
    observer = Observers(tracer=tracer)
    observer.now = 10.0
    observer.throttle_feedback("l2", "useful", 16)
    observer.throttle_feedback("l2", "useful", 16)  # counter unchanged: instant only, no C event
    observer.now = 20.0
    observer.throttle_feedback("l2", "useless", 15)
    phases = [e["ph"] for e in tracer.to_dict()["traceEvents"] if e["ph"] != "M"]
    assert phases.count("i") == 3
    assert phases.count("C") == 2  # first value, then the change


# ---------------------------------------------------------------------------
# interval sampler
# ---------------------------------------------------------------------------


def _metrics_run(seed=2):
    cfg = replace(make_config("adaptive_compr", n_cores=2, scale=16),
                  metrics=True, metrics_interval=500)
    system = CMPSystem(cfg, "oltp", seed=seed)
    system.run(600, warmup_events=300)
    return system.sampler


def test_sampler_deterministic_across_runs():
    assert _metrics_run().series == _metrics_run().series


def test_sampler_rates_stay_sane_across_reset():
    """reset_stats zeroes the counters mid-run; re-based deltas must
    never go negative and ratio metrics stay within [0, 1]."""
    sampler = _metrics_run()
    assert sampler.samples > 2
    for name in ("l1i_miss_rate", "l1d_miss_rate", "l2_miss_rate",
                 "compressed_frac", "pf_l2_coverage", "pf_l2_timeliness"):
        values = sampler.series[name]
        assert all(0.0 <= v <= 1.0 for v in values), name
    # Interval accuracy may exceed 1.0 (prefetches issued last interval
    # turning useful this interval) but a negative delta would mean the
    # sampler failed to re-base across reset_stats.
    assert all(v >= 0.0 for v in sampler.series["pf_l2_accuracy"])
    assert all(v >= 0.0 for v in sampler.series["ipc"])
    cycles = sampler.series["cycle"]
    assert cycles == sorted(cycles)


def test_sampler_export_roundtrip(tmp_path):
    sampler = _metrics_run()
    csv_path = tmp_path / "series.csv"
    jsonl_path = tmp_path / "series.jsonl"
    sampler.write(str(csv_path))
    sampler.write(str(jsonl_path))
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header == sampler.columns
    rows = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert rows == sampler.rows()
    assert len(rows) == sampler.samples


def test_registry_rejects_duplicates_and_reads_rates():
    reg = MetricsRegistry()
    reg.rate("r", lambda s: 4.0, lambda s: 2.0).gauge("g", lambda s: 7.0)
    with pytest.raises(ValueError):
        reg.gauge("r", lambda s: 0.0)
    assert reg.names() == ["r", "g"]
    assert reg.is_rate("r") and not reg.is_rate("g")
    sampler = IntervalSampler(10, registry=reg)
    sampler.sample(SimpleNamespace(), 10.0, 0.0)
    assert sampler.series["r"] == [2.0]
    assert sampler.series["g"] == [7.0]
    assert sampler.next_due == 20.0


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def test_interval_gate(monkeypatch):
    # The cadence is the config field alone: no environment knob
    # overrides it.
    monkeypatch.setenv("REPRO_METRICS_INTERVAL", "77")
    cfg = replace(SystemConfig(n_cores=2), metrics=True, metrics_interval=123)
    assert CMPSystem(cfg, "zeus", seed=0).sampler.interval == 123


def test_metrics_interval_must_be_positive():
    with pytest.raises(ValueError):
        replace(SystemConfig(), metrics_interval=0)


# ---------------------------------------------------------------------------
# progress renderer
# ---------------------------------------------------------------------------


class _FakeStream:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass

    def isatty(self):
        return False

    @property
    def text(self):
        return "".join(self.chunks)


def test_progress_renders_rate_eta_and_sources():
    stream = _FakeStream()
    tick = [0.0]

    def clock():
        tick[0] += 1.0
        return tick[0]

    bar = SweepProgress(stream=stream, now=clock)
    bar.point_done(1, 4, source="sim")
    bar.point_done(2, 4, source="disk")
    bar.point_done(3, 4, source="error")
    bar.point_done(4, 4, source="disk")
    text = stream.text
    assert "sweep 4/4" in text
    assert "pt/s" in text and "eta" in text
    assert "sim=1" in text and "disk=2" in text
    assert "err=1" in text
    assert text.endswith("\n")  # closed at done == total
    bar.close()  # idempotent
    assert stream.text.count("\n") == 1


def test_progress_plain_callable_compatibility():
    stream = _FakeStream()
    bar = SweepProgress(stream=stream, now=lambda: 0.0)
    bar(1, 2)
    bar(2, 2)
    assert "sweep 2/2" in stream.text


def test_default_progress_requires_tty():
    assert default_progress(stream=_FakeStream()) is None

    class Tty(_FakeStream):
        def isatty(self):
            return True

    assert isinstance(default_progress(stream=Tty()), SweepProgress)


def test_runner_feeds_sources_to_point_done():
    from repro.core.runner import ParallelRunner

    class Recorder(SweepProgress):
        def __init__(self):
            super().__init__(stream=_FakeStream(), now=lambda: 0.0)
            self.seen = []

        def point_done(self, done, total, source=None):
            self.seen.append(source)
            super().point_done(done, total, source=source)

    # A seed no other test uses, so the first run is a genuinely fresh
    # simulation regardless of what earlier tests stored.
    kwargs = dict(events=200, warmup=100, n_cores=2, scale=16, seed=94613)
    points = [(("zeus", "base"), dict(kwargs)), (("zeus", "base"), dict(kwargs))]
    recorder = Recorder()
    outcomes = ParallelRunner(jobs=1).run_points(points, progress=recorder)
    assert len(outcomes) == 2
    assert recorder.seen[0] == "sim"
    assert recorder.seen[1] == "disk"  # the second is served by the disk cache


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_trace_command(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "trace.json"
    rc = main(["run", "zeus", "--config", "pref_compr", "--trace", str(out),
               "--events", "400", "--scale", "16", "--cores", "2"])
    assert rc == 0
    assert validate_trace(json.loads(out.read_text())) == []
    assert "trace event(s)" in capsys.readouterr().out


def test_cli_metrics_command(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "series.csv"
    rc = main(["run", "zeus", "--config", "adaptive_compr", "--metrics", str(out),
               "--events", "800", "--scale", "16", "--cores", "2",
               "--interval", "500", "--columns", "ipc,l2_miss_rate"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "ipc" in captured and "l2_miss_rate" in captured
    assert out.read_text().startswith("cycle,")


def test_cli_metrics_rejects_unknown_column(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    rc = main(["run", "zeus", "--config", "pref_compr", "--metrics",
               "--events", "600", "--scale", "16",
               "--cores", "2", "--interval", "500", "--columns", "nope"])
    assert rc == 2
    assert "unknown metric column" in capsys.readouterr().err


def test_cli_profile_command(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "profile.json"
    rc = main(["profile", "zeus", "base", "-o", str(out),
               "--events", "400", "--scale", "16", "--cores", "2"])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["engine"] == "cprofile"
    assert report["components"]
    assert "events/s" in capsys.readouterr().out



def test_cli_profile_logs_one_simulate_record(tmp_path, capsys, monkeypatch):
    """`repro profile` runs the point through CMPSystem.run, so one
    simulate record is logged."""
    from repro.cli import main
    from repro.obs import telemetry

    monkeypatch.chdir(tmp_path)
    sink = tmp_path / "runs.jsonl"
    monkeypatch.setenv("REPRO_TELEMETRY", str(sink))
    rc = main(["profile", "zeus", "base",
               "--events", "400", "--scale", "16", "--cores", "2"])
    assert rc == 0
    assert "events/s under cprofile" in capsys.readouterr().out
    telemetry.close_sinks()
    sims = [r for r in telemetry.read_records(str(sink)) if r["kind"] == "simulate"]
    assert len(sims) == 1

def test_cli_sweep_quiet_flag(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    rc = main(["sweep", "--workloads", "zeus", "--configs", "base",
               "--events", "200", "--scale", "16", "--cores", "2", "--quiet"])
    assert rc == 0
    assert "zeus" in capsys.readouterr().out
