"""Host-side benchmark of the CMP simulator: one deterministic point per workload.

Usage (from the repository root):

    python3 simbench/run.py --workload hot-base --seed 0 --seconds 60 --trace 0

Each workload is one ``CMPSystem`` point driven in this process through
the public API.  The uninstrumented run (``--trace 0``) repeats the
point for ``--seconds`` and reports host time and peak RSS.  The traced
run (``--trace 1``) alternates untraced and span-traced points (see
``spans.py``) and reports per-layer self time plus the exact simulated
counters of the result.

Every point's ``result_fingerprint`` must equal the one recorded in
``fingerprints.json`` for its workload and seed; a mismatch is a failed
operation.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"simbench: simulator sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from repro import CMPSystem, make_config  # noqa: E402
from repro.report.export import result_fingerprint  # noqa: E402
from spans import LAYERS, SpanLedger  # noqa: E402

N_CORES = 8
SCALE = 4
BANDWIDTH_GBS = 20.0
EVENTS_PER_CORE = 2_000
WARMUP_PER_CORE = 3_000
EVENTS_PER_POINT = (EVENTS_PER_CORE + WARMUP_PER_CORE) * N_CORES
#: The benchmark seed selects one of this many recorded workload seeds.
SEED_SPACE = 16
MIN_POINTS = 3
FINGERPRINTS = HERE / "fingerprints.json"


@dataclass(frozen=True)
class Workload:
    """One simulator point."""

    trace: str  # simulated workload (repro.workloads registry name)
    config: str  # CONFIG_FEATURES key


def _observers_on(cfg):
    return replace(cfg, attribution=True, metrics=True, audit=True)


# Two workloads, each measured for a minute per run: on the shared host
# this was built on, contention comes in phases of minutes, and four
# workloads at half a minute each spread past their bounds.
WORKLOADS: Dict[str, Workload] = {
    # Prefetching and compression off: generation, the event loop and the
    # L1 path dominate.  Predicts no change for prefetch/codec/memory work.
    "hot-base": Workload("zeus", "base"),
    # Working set 14x the L2, streaming, stride prefetch plus cache and
    # link compression: the paper's bandwidth-bound L2-miss path.
    "stream-prefcompr": Workload("fma3d", "pref_compr"),
}

END_TO_END = {
    "events_per_s": "events/s",
    "point_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def clear_repro_env() -> List[str]:
    """Drop every ambient ``REPRO_*`` knob (engine, observers, snapshots,
    faults, guards, sizing, cache) so only this file decides what runs."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    return cleared


def workload_seed(seed: int) -> int:
    return seed % SEED_SPACE


def build_config(workload: Workload):
    return make_config(
        workload.config, n_cores=N_CORES, scale=SCALE, bandwidth_gbs=BANDWIDTH_GBS
    )


def expected_fingerprint(name: str, wseed: int) -> Optional[str]:
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    seeds = recorded.get(name, [])
    return seeds[wseed] if wseed < len(seeds) else None


def run_point(cfg, trace: str, wseed: int):
    """Construct and run one point: (result, set-up seconds, run seconds)."""
    gc.collect()
    t0 = time.perf_counter()
    system = CMPSystem(cfg, trace, seed=wseed)
    t1 = time.perf_counter()
    result = system.run(EVENTS_PER_CORE, warmup_events=WARMUP_PER_CORE)
    return result, t1 - t0, time.perf_counter() - t1


def budget(seconds: float, minimum: int) -> Iterator[int]:
    """Yield while one more iteration, at the mean pace so far, still
    fits in ``seconds``; always at least ``minimum`` iterations."""
    start = time.perf_counter()
    done = 0
    while done < minimum or (time.perf_counter() - start) * (done + 1) / done <= seconds:
        yield done
        done += 1


def measure(cfg, workload: Workload, wseed: int,
            expected: Optional[str], seconds: float) -> Tuple[Dict, int, int]:
    setup_s: List[float] = []
    point_s: List[float] = []
    events_per_s: List[float] = []
    attempted = failed = 0
    for _ in budget(seconds, MIN_POINTS):
        result, setup, run_s = run_point(cfg, workload.trace, wseed)
        attempted += 1
        failed += result_fingerprint(result) != expected
        setup_s.append(setup)
        point_s.append(setup + run_s)
        events_per_s.append(EVENTS_PER_POINT / run_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Throughput and point time are the best point of the run: on a
    # shared host, contention only ever adds time and comes in phases
    # lasting tens of seconds, so run medians swung by a quarter between
    # runs while the best point held steady.  Set-up is too short to be
    # caught whole by a phase and is reported as a median.
    values = {
        "events_per_s": max(events_per_s),
        "point_s": min(point_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, attempted, failed


# -- traced run ---------------------------------------------------------------

#: Per-layer metrics: name -> (unit, better), in report order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{f"{layer}.{kind}": (unit, "lower")
       for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "system.loop.ns_per_event": ("ns", "lower"),
    "workloads.gen.ns_per_event": ("ns", "lower"),
    "compression.setup_s": ("s", "lower"),
    "compression.avg_segments": ("segments", "lower"),
    "core.hierarchy.ns_per_access": ("ns", "lower"),
    "core.memory_stall_cycles": ("cycles", "lower"),
    "cache.l1d.miss_rate": ("ratio", "lower"),
    "cache.l2.demand_misses": ("count", "lower"),
    "cache.l2.evictions": ("count", "lower"),
    "prefetch.l1d.accuracy": ("ratio", "higher"),
    "prefetch.l2.accuracy": ("ratio", "higher"),
    "prefetch.l2.issued": ("count", "lower"),
    "prefetch.l2.dropped": ("count", "lower"),
    "interconnect.link.bytes_total": ("bytes", "lower"),
    "interconnect.link.queue_cycles": ("cycles", "lower"),
    "memory.dram.requests": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def simulated_counters(result) -> Dict[str, float]:
    """Exact simulated statistics of the point (they repeat bit for bit)."""
    return {
        "compression.avg_segments": result.compression.avg_segments_per_line,
        "core.memory_stall_cycles": result.extra["memory_stall_cycles"],
        "cache.l1d.miss_rate": result.l1d.miss_rate,
        "cache.l2.demand_misses": result.l2.demand_misses,
        "cache.l2.evictions": result.l2.evictions,
        "prefetch.l1d.accuracy": result.prefetch["l1d"].accuracy,
        "prefetch.l2.accuracy": result.prefetch["l2"].accuracy,
        "prefetch.l2.issued": result.prefetch["l2"].issued,
        "prefetch.l2.dropped": result.prefetch["l2"].dropped,
        "interconnect.link.bytes_total": result.link.bytes_total,
        "interconnect.link.queue_cycles": result.link.queue_cycles,
        "memory.dram.requests": (
            result.extra["dram_demand"] + result.extra["dram_prefetch"]
        ),
    }


def traced_point(cfg, trace: str, wseed: int):
    """One span-traced point: (result, ledger, wall, setup-phase codec time)."""
    ledger = SpanLedger()
    gc.collect()
    with ledger.installed():
        t0 = time.perf_counter()
        system = CMPSystem(cfg, trace, seed=wseed)
        codec_setup_s = ledger.self_s["compression"]
        result = system.run(EVENTS_PER_CORE, warmup_events=WARMUP_PER_CORE)
        wall = time.perf_counter() - t0
    return result, ledger, wall, codec_setup_s


def spans_reconcile(ledger, wall: float) -> bool:
    """Layer self times plus the loop remainder must equal the traced wall."""
    return abs(ledger.total_s() - wall) <= 0.01 * wall


def measure_traced(cfg, workload: Workload, wseed: int,
                   expected: Optional[str], seconds: float) -> Tuple[Dict, int, int]:
    observed_cfg = _observers_on(cfg)
    samples: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    attempted = failed = 0
    for _ in budget(seconds, 1):
        plain, setup, run_s = run_point(cfg, workload.trace, wseed)
        untraced_wall = setup + run_s
        result, ledger, wall, codec_setup_s = traced_point(cfg, workload.trace, wseed)
        results = [plain, result]
        traced = [(ledger, wall)]
        # The observers only run when switched on, so their cost comes
        # from a second traced point with them on.  Read-only contract:
        # it must still reproduce the workload's fingerprint.
        obs_result, obs_ledger, obs_wall, _ = traced_point(
            observed_cfg, workload.trace, wseed
        )
        results.append(obs_result)
        traced.append((obs_ledger, obs_wall))
        attempted += 1
        failed += not (
            all(result_fingerprint(r) == expected for r in results)
            and all(spans_reconcile(*pair) for pair in traced)
        )
        point = {}
        for layer in ledger.self_s:
            source = obs_ledger if layer.startswith("obs.") else ledger
            point[f"{layer}.self_s"] = source.self_s[layer]
            point[f"{layer}.calls"] = source.calls[layer]
        point["system.loop.ns_per_event"] = (
            ledger.self_s["system.loop"] / EVENTS_PER_POINT * 1e9
        )
        point["workloads.gen.ns_per_event"] = _per_call_ns(ledger, "workloads.gen")
        point["core.hierarchy.ns_per_access"] = _per_call_ns(ledger, "core.hierarchy")
        point["compression.setup_s"] = codec_setup_s
        point["trace.overhead"] = wall / untraced_wall
        for key, value in point.items():
            samples.setdefault(key, []).append(value)
        counters = simulated_counters(result)
    values = {key: statistics.median(vals) for key, vals in samples.items()}
    values.update(counters)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _better) in PER_LAYER.items()
    }
    return metrics, attempted, failed


def _per_call_ns(ledger, layer: str) -> float:
    calls = ledger.calls[layer]
    return ledger.self_s[layer] / calls * 1e9 if calls else 0.0


# -- entry point ---------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cleared = clear_repro_env()
    workload = WORKLOADS[args.workload]
    wseed = workload_seed(args.seed)
    expected = expected_fingerprint(args.workload, wseed)
    cfg = build_config(workload)
    print(
        f"# simbench workload={args.workload} ({workload.trace}/{workload.config})"
        f" seed={args.seed} workload_seed={wseed} events={EVENTS_PER_CORE}"
        f" warmup={WARMUP_PER_CORE} cores={N_CORES} scale={SCALE}"
        f" bandwidth_gbs={BANDWIDTH_GBS:g} engine={cfg.engine}"
        f" python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}"
        f" trace={args.trace} cleared_env={','.join(cleared) or '-'}",
        flush=True,
    )
    if expected is None:
        print(f"simbench: no recorded fingerprint for {args.workload} seed {wseed}",
              file=sys.stderr)
        return 2
    run = measure_traced if args.trace else measure
    metrics, attempted, failed = run(cfg, workload, wseed, expected, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
