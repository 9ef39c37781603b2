"""Ablation: FPC against alternative compression schemes.

Related-work baselines: FVC (frequent-value table), Selective
(half-or-nothing FPC, Lee et al.), and a zeros-only degenerate encoder.
Two questions: (a) how do the schemes rank on each workload's data, and
(b) does swapping the scheme change the end-to-end compression speedup?
"""

from __future__ import annotations

from dataclasses import replace

from _common import ALL, EVENTS, WARMUP, point, print_header, print_row
from repro.compression.schemes import SCHEME_NAMES, compare_schemes
from repro.core.system import CMPSystem
from repro.params import SystemConfig
from repro.workloads.registry import get_spec
from repro.workloads.values import ValueModel


def run_scheme_ratios():
    rows = {}
    for w in ALL:
        model = ValueModel(get_spec(w).value_mix, seed=0, pool_size=512)
        lines = [model.line_words(i * 37) for i in range(256)]
        segs = compare_schemes(lines)
        rows[w] = tuple(min(8.0 / segs[name], 2.0) for name in SCHEME_NAMES)
    return rows


def test_ablation_scheme_ratios(benchmark):
    rows = benchmark.pedantic(run_scheme_ratios, rounds=1, iterations=1)
    print_header("Ablation: expansion by compression scheme", list(SCHEME_NAMES))
    for w, vals in rows.items():
        print_row(w, vals)
    for w, vals in rows.items():
        ratio = dict(zip(SCHEME_NAMES, vals))
        fpc, selective, zero = ratio["fpc"], ratio["selective"], ratio["zero_only"]
        # FPC dominates its zero-only subset and selective (which discards
        # some of FPC's encodings) on every workload's data.
        assert fpc >= zero - 1e-9, w
        assert fpc >= selective - 1e-9, w


def run_scheme_speedups():
    """End-to-end: zeus compression speedup under each scheme."""
    base = point("zeus", "base").runtime
    out = {}
    for name in SCHEME_NAMES:
        cfg = SystemConfig().scaled(4).with_features(
            cache_compression=True, link_compression=True
        )
        cfg = replace(cfg, l2=replace(cfg.l2, scheme=name))
        r = CMPSystem(cfg, "zeus", seed=0).run(EVENTS, warmup_events=WARMUP)
        out[name] = 100.0 * (base / r.runtime - 1.0)
    return out


def test_ablation_scheme_speedups(benchmark):
    rows = benchmark.pedantic(run_scheme_speedups, rounds=1, iterations=1)
    print()
    print("=== Ablation: zeus compression speedup by scheme ===")
    for name, v in rows.items():
        print(f"  {name:12s} {v:+.1f}%")
    # FPC is at least as good as the zeros-only degenerate encoder.
    assert rows["fpc"] >= rows["zero_only"] - 2.0
