"""Figure 9 / Table 5: speedups and interaction terms (the central result).

Paper Table 5 (percent improvement over base):

============ ====== ===== ===== ====== ===== ===== ===== =====
             apache zeus  oltp  jbb    art   apsi  fma3d mgrid
============ ====== ===== ===== ====== ===== ===== ===== =====
Pref.        -0.9   21.3  0.3   -24.5  6.4   13.6  -3.4  18.9
Compr.       20.5   9.7   5.6   5.9    3.1   4.2   22.6  2.9
Pref+Compr   37.3   50.7  9.9   -6.5   10.6  15.5  18.6  48.7
Adaptive+C   39.2   50.8  13.1  1.7    10.7  16.1  18.5  49.9
Interaction  15.0   13.2  3.8   16.9   0.9   -2.5  0.2   21.5
============ ====== ===== ===== ====== ===== ===== ===== =====

Shape assertions: compression helps everything; prefetching hurts jbb;
the combination beats prefetching alone everywhere; the interaction term
is positive for at least six of the eight workloads; adaptive+compr is
at least as good as pref+compr for commercial workloads.
"""

from __future__ import annotations

from _common import ALL, COMMERCIAL, print_header, print_row, seeded_runtime
from repro.core.interaction import InteractionBreakdown


def run_fig9():
    rows = {}
    for w in ALL:
        base = seeded_runtime(w, "base")
        b = InteractionBreakdown.from_runtimes(
            w,
            base=base,
            with_a=seeded_runtime(w, "pref"),
            with_b=seeded_runtime(w, "compr"),
            with_both=seeded_runtime(w, "pref_compr"),
        )
        adaptive = base / seeded_runtime(w, "adaptive_compr")
        rows[w] = (b, adaptive)
    return rows


def test_fig9_table5_interactions(benchmark):
    rows = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    print_header(
        "Table 5: speedups and interactions (%)",
        ["pref", "compr", "both", "adaptive+C", "interaction"],
    )
    for w, (b, adaptive) in rows.items():
        print_row(
            w,
            [
                100 * (b.speedup_a - 1),
                100 * (b.speedup_b - 1),
                100 * (b.speedup_ab - 1),
                100 * (adaptive - 1),
                100 * b.interaction,
            ],
            fmt="{:+14.1f}",
        )

    breakdowns = {w: b for w, (b, _) in rows.items()}
    # Compression speeds up every benchmark (paper: 2.9-22.6%).
    for w, b in breakdowns.items():
        assert b.speedup_b > 1.0, (w, b.speedup_b)
    # Prefetching alone slows jbb down.
    assert breakdowns["jbb"].speedup_a < 0.95
    # The combination beats prefetching alone for every workload.
    for w, b in breakdowns.items():
        assert b.speedup_ab > b.speedup_a, w
    # Positive interaction for at least six of eight workloads, with jbb
    # among the strongly positive ones (paper: +16.9%).
    positives = [w for w, b in breakdowns.items() if b.interaction > 0]
    assert len(positives) >= 6, positives
    assert breakdowns["jbb"].interaction > 0.05
    # Adaptive + compression >= pref + compression for commercial codes.
    for w in COMMERCIAL:
        b, adaptive = rows[w]
        assert adaptive > b.speedup_ab - 0.06, (w, adaptive, b.speedup_ab)
