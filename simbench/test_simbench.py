"""Tests of the benchmark's own machinery.

    python3 -m pytest simbench -q
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

import run
from repro.workloads.base import TraceGenerator
from spans import LAYERS, SpanLedger

BENCHMARK = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_spans_charge_only_self_time():
    clock = FakeClock()
    ledger = SpanLedger(clock)
    leaf = ledger.wrap("cache.l1", lambda: clock.advance(2.0))

    def hierarchy():
        clock.advance(1.0)
        leaf()
        leaf()
        clock.advance(0.5)

    access = ledger.wrap("core.hierarchy", hierarchy)

    def loop():
        clock.advance(3.0)
        access()

    ledger.wrap("system.loop", loop)()
    assert ledger.self_s["cache.l1"] == 4.0
    assert ledger.self_s["core.hierarchy"] == 1.5
    assert ledger.self_s["system.loop"] == 3.0
    assert ledger.calls["cache.l1"] == 2
    assert ledger.calls["core.hierarchy"] == 1
    assert ledger.total_s() == 8.5


def test_a_layer_nested_in_itself_counts_its_time_once():
    clock = FakeClock()
    ledger = SpanLedger(clock)
    inner = ledger.wrap("compression", lambda: clock.advance(1.0))

    def outer():
        clock.advance(0.25)
        inner()

    ledger.wrap("compression", outer)()
    assert ledger.self_s["compression"] == 1.25
    assert ledger.calls["compression"] == 2
    assert ledger.total_s() == 1.25


def test_a_raising_span_still_closes():
    clock = FakeClock()
    ledger = SpanLedger(clock)

    def fail():
        clock.advance(1.0)
        raise KeyError("boom")

    failing = ledger.wrap("memory.dram", fail)

    def caller():
        clock.advance(2.0)
        with pytest.raises(KeyError):
            failing()

    ledger.wrap("system.loop", caller)()
    assert ledger.self_s == {**dict.fromkeys(LAYERS, 0.0),
                             "memory.dram": 1.0, "system.loop": 2.0}
    assert ledger._child == [3.0]


def test_benchmark_names_and_units_use_the_allowed_charset():
    entries = BENCHMARK["workloads"] + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry


def test_benchmark_declares_exactly_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {e["name"]: e["unit"] for e in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {e["name"]: (e["unit"], e["better"]) for e in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_every_recorded_workload_has_every_seed():
    recorded = json.loads(run.FINGERPRINTS.read_text())
    assert sorted(recorded) == sorted(run.WORKLOADS)
    for prints in recorded.values():
        assert len(prints) == run.SEED_SPACE
        assert all(re.fullmatch(r"[0-9a-f]{64}", p) for p in prints)


@pytest.fixture
def short_points(monkeypatch):
    monkeypatch.setattr(run, "EVENTS_PER_CORE", 300)
    monkeypatch.setattr(run, "WARMUP_PER_CORE", 200)


def small_config(name):
    return replace(run.build_config(run.WORKLOADS[name]), n_cores=2)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_point_reproduces_untraced_fingerprint(name, short_points):
    trace = run.WORKLOADS[name].trace
    plain, _, _ = run.run_point(small_config(name), trace, 1)
    traced, ledger, wall, _ = run.traced_point(small_config(name), trace, 1)
    assert run.result_fingerprint(traced) == run.result_fingerprint(plain)
    assert run.spans_reconcile(ledger, wall)
    assert ledger.calls["core.hierarchy"] == 2 * 500
    assert ledger.calls["workloads.gen"] == 2 * 500
    # Every wrapper is gone again afterwards.
    assert not hasattr(run.CMPSystem.run, "__wrapped__")
    assert TraceGenerator.events.__name__ == "events"


def test_observers_leave_the_result_unchanged(short_points):
    cfg = small_config("stream-prefcompr")
    prints = {
        run.result_fingerprint(run.run_point(c, "fma3d", 1)[0])
        for c in (cfg, run._observers_on(cfg))
    }
    assert len(prints) == 1
