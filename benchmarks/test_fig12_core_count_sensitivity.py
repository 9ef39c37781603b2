"""Figures 1 and 12: performance improvement vs number of CMP cores.

Paper: stride prefetching improves a uniprocessor dramatically (apache
+61%, zeus +73%) but the benefit decays with core count and turns into a
degradation at 16 cores (zeus -8%, jbb -35%), because prefetching
oversubscribes the shared cache and pin bandwidth.  Compression's gain
grows slowly with cores, and the combination stays strongly positive
(zeus +28% at 16p).  All system parameters besides core count stay at
their Table 1 values.
"""

from __future__ import annotations

from _common import improvement_pct

CORE_COUNTS = (1, 4, 8, 16)
WORKLOADS = ("zeus", "apache", "jbb")
KEYS = ("pref", "adaptive", "compr", "pref_compr")


def run_fig12():
    rows = {}
    for w in WORKLOADS:
        for n in CORE_COUNTS:
            rows[(w, n)] = tuple(
                improvement_pct(w, k, n_cores=n) for k in KEYS
            )
    return rows


def test_fig12_core_count_sensitivity(benchmark):
    rows = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    print()
    print("=== Figures 1/12: improvement (%) vs core count ===")
    print(f"{'workload':8s} {'cores':>5s}" + "".join(f"{k:>12s}" for k in KEYS))
    for (w, n), vals in rows.items():
        print(f"{w:8s} {n:5d}" + "".join(f"{v:+12.1f}" for v in vals))

    for w in WORKLOADS:
        pref_by_cores = [rows[(w, n)][0] for n in CORE_COUNTS]
        # The paper's headline: prefetching's benefit decays as cores
        # contend for the shared cache and pins.
        assert pref_by_cores[0] > pref_by_cores[-1], (w, pref_by_cores)
    # jbb prefetching is clearly negative at 8+ cores.
    assert rows[("jbb", 8)][0] < 0.0
    assert rows[("jbb", 16)][0] < 0.0
    # Prefetching+compression remains positive at 16 cores for the web
    # servers (paper: apache +39%, zeus +28%).
    assert rows[("zeus", 16)][3] > 0.0
    assert rows[("apache", 16)][3] > 0.0
