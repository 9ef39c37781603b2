"""Figure 5: speedup of cache/link/combined compression (no prefetching).

Paper: cache compression alone improves commercial workloads 5-18% and
SPEComp 0-4%.  With the generous 20 GB/s baseline link, link compression
alone only matters for fma3d (the highest-demand workload, +23%); the
combination is slightly better than cache compression alone.
"""

from __future__ import annotations

from _common import ALL, COMMERCIAL, improvement_pct, print_header, print_row

KEYS = ("cache_compr", "link_compr", "compr")


def run_fig5():
    rows = {}
    for w in ALL:
        rows[w] = tuple(improvement_pct(w, k) for k in KEYS)
    return rows


def test_fig5_compression_speedup(benchmark):
    rows = benchmark.pedantic(run_fig5, rounds=1, iterations=1)
    print_header("Figure 5: compression speedup (%)", ["cacheC", "linkC", "both"])
    for w, vals in rows.items():
        print_row(w, vals, fmt="{:+14.1f}")

    # Shape: cache compression helps every commercial workload noticeably.
    for w in COMMERCIAL:
        assert rows[w][0] > 3.0, (w, rows[w])
    # apsi is incompressible: nothing helps it much.
    assert abs(rows["apsi"][0]) < 6.0
    # fma3d is the workload where link compression matters most.
    assert rows["fma3d"][1] == max(rows[w][1] for w in ALL)
    # Combined compression is at least roughly as good as cache-only.
    for w in ALL:
        assert rows[w][2] >= rows[w][0] - 4.0, (w, rows[w])
