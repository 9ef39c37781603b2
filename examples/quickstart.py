#!/usr/bin/env python3
"""Quickstart: simulate one workload on the paper's CMP, with and without
compression + prefetching, and print the headline numbers.

Run:  python examples/quickstart.py [workload]
"""

from __future__ import annotations

import sys

from repro import CMPSystem, SystemConfig, settings

EVENTS = settings.get("REPRO_EVENTS", 6000)
WARMUP = settings.get("REPRO_WARMUP", 10000)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "zeus"

    # Table 1's 8-core CMP, scaled 4x down so this runs in seconds.
    base_config = SystemConfig().scaled(4)

    print(f"workload: {workload}")
    print(f"system:   {base_config.n_cores} cores, "
          f"{base_config.l2.size_bytes // 1024} KB shared L2, "
          f"{base_config.link.bandwidth_gbs:g} GB/s pins\n")

    results = {}
    for name, features in [
        ("base", {}),
        ("prefetching", dict(prefetching=True)),
        ("compression", dict(cache_compression=True, link_compression=True)),
        ("both", dict(cache_compression=True, link_compression=True, prefetching=True)),
        ("adaptive+compression",
         dict(cache_compression=True, link_compression=True, prefetching=True, adaptive=True)),
    ]:
        config = base_config.with_features(**features) if features else base_config
        system = CMPSystem(config, workload, seed=0)
        results[name] = system.run(EVENTS, warmup_events=WARMUP, config_name=name)

    base = results["base"]
    print(f"{'config':22s}{'cycles':>12s}{'speedup':>9s}{'L2 miss%':>10s}"
          f"{'pin GB/s':>10s}{'L2 ratio':>10s}")
    for name, r in results.items():
        print(f"{name:22s}{r.elapsed_cycles:12.0f}{r.speedup_vs(base):9.3f}"
              f"{100 * r.l2.miss_rate:10.1f}{r.bandwidth_gbs:10.2f}"
              f"{r.compression_ratio:10.2f}")

    both = results["both"]
    s_p = results["prefetching"].speedup_vs(base)
    s_c = results["compression"].speedup_vs(base)
    s_b = both.speedup_vs(base)
    print(f"\nInteraction(Pref, Compr) = {100 * (s_b / (s_p * s_c) - 1):+.1f}% "
          f"(EQ 5; positive means the combination beats the product)")


if __name__ == "__main__":
    main()
