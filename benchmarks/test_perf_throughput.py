"""Throughput regression gate for the simulator.

The floor is derived from the committed benchmark artifact
(``BENCH_throughput.json``, regenerated with ``repro bench``) rather
than hard-coded.  Absolute events/sec swings ~2x across machines, so the
floor carries generous slack: it catches a simulator that got
catastrophically slower, not ordinary machine-to-machine variation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core.experiment import make_config
from repro.core.system import CMPSystem

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_throughput.json"

# Slack on absolute events/sec: machines legitimately differ ~2x, so
# only flag a further ~2x drop on top of that.
ABS_SLACK = 0.25

GATE_POINT = "zeus/base"
REPS = 2


def _artifact() -> dict:
    with ARTIFACT.open() as fh:
        return json.load(fh)


def test_artifact_is_complete():
    art = _artifact()
    assert art["points"], "committed artifact has no benchmark points"
    for point, entry in art["points"].items():
        assert entry["ref_events_per_sec"] > 0, point
    assert GATE_POINT in art["points"]


def test_throughput_floor_from_artifact():
    art = _artifact()
    committed = art["points"][GATE_POINT]["ref_events_per_sec"]
    events, warmup = art["events_per_core"], art["warmup_per_core"]
    cores, scale = art["n_cores"], art["scale"]
    workload, key = GATE_POINT.split("/")

    best = 0.0
    for _ in range(REPS):
        cfg = make_config(key, n_cores=cores, scale=scale)
        system = CMPSystem(cfg, workload, seed=art["seed"])
        t0 = time.perf_counter()
        system.run(events, warmup_events=warmup)
        wall = time.perf_counter() - t0
        best = max(best, (events + warmup) * cores / wall)

    abs_floor = committed * ABS_SLACK
    assert best >= abs_floor, (
        f"throughput collapsed: {best:.0f} ev/s vs floor {abs_floor:.0f} "
        f"(committed {committed:.0f} * slack {ABS_SLACK})"
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
