#!/usr/bin/env python3
"""Define your own workload and ask whether compression + prefetching help.

The paper's conclusion — implement both — is workload-dependent.  This
example builds a custom workload with the builder API, saves it to JSON,
reloads it, and runs the four-config matrix, ending with the EQ 5
interaction verdict for *your* workload.

Run:  python examples/custom_workload.py
"""

from __future__ import annotations

import os
import tempfile

from repro import CMPSystem, SystemConfig, interaction_coefficient, settings
from repro.workloads.custom import WorkloadBuilder, load_spec, save_spec

EVENTS = settings.get("REPRO_EVENTS", 5000)
WARMUP = settings.get("REPRO_WARMUP", 8000)


def main() -> None:
    # An analytics-style workload: big scans (long streams), a compressed
    # column store (integer-rich values), little sharing.
    spec = (
        WorkloadBuilder("columnscan")
        .footprint(ws_factor=6.0, locality=1.3, hot_fraction=0.25)
        .streaming(fraction=0.6, length=200, strides=((1, 0.9), (4, 0.1)),
                   streams_per_core=3)
        .instruction_mix(footprint_factor=0.5, instr_per_event=20.0)
        .sharing(shared_fraction=0.03, store_fraction=0.1)
        .values(("int64", 0.35), ("tiny_int", 0.25), ("zero", 0.1), ("random", 0.3))
        .core(tolerance=0.5)
        .build()
    )

    path = os.path.join(tempfile.gettempdir(), "columnscan.json")
    save_spec(spec, path)
    spec = load_spec(path)
    print(f"spec saved to and reloaded from {path}\n")

    config = SystemConfig().scaled(4)
    results = {}
    for name, features in [
        ("base", {}),
        ("pref", dict(prefetching=True)),
        ("compr", dict(cache_compression=True, link_compression=True)),
        ("both", dict(cache_compression=True, link_compression=True, prefetching=True)),
    ]:
        cfg = config.with_features(**features) if features else config
        results[name] = CMPSystem(cfg, spec, seed=0).run(
            EVENTS, warmup_events=WARMUP, config_name=name
        )

    base = results["base"]
    print(f"{'config':8s}{'cycles':>12s}{'speedup':>9s}{'L2 miss%':>10s}{'GB/s':>8s}")
    for name, r in results.items():
        print(f"{name:8s}{r.elapsed_cycles:12.0f}{r.speedup_vs(base):9.3f}"
              f"{100 * r.l2.miss_rate:10.1f}{r.bandwidth_gbs:8.2f}")

    s_p = results["pref"].speedup_vs(base)
    s_c = results["compr"].speedup_vs(base)
    s_b = results["both"].speedup_vs(base)
    inter = interaction_coefficient(s_b, s_p, s_c)
    print(f"\nInteraction(Pref, Compr) for 'columnscan' = {100 * inter:+.1f}%")
    verdict = "implement both" if inter > 0 and s_b > max(s_p, s_c) else "pick one"
    print(f"Verdict for this workload: {verdict}.")


if __name__ == "__main__":
    main()
