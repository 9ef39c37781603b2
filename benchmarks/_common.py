"""Shared infrastructure for the paper-reproduction benchmarks.

Each bench regenerates one table or figure: it runs the needed
(workload x config) simulation points through
:func:`repro.core.experiment.run_point`, prints the same rows/series the
paper reports, and makes weak *shape* assertions (who wins, direction of
effects) rather than absolute-number assertions — our substrate is a
synthetic trace-driven simulator, not the authors' Simics/GEMS testbed.

Runtime knobs (environment, read through :mod:`repro.settings`):

* ``REPRO_EVENTS``  — measured events per core   (default 8000 here)
* ``REPRO_WARMUP``  — warmup events per core     (default 12000 here)
* ``REPRO_SEEDS``   — seeds per point            (default 1)
* ``REPRO_SCALE``   — capacity scale divisor     (default 4)

Because every bench shares the same defaults, the disk result cache lets
the full suite reuse runs across figures (Figure 9 and Table 5, for
example, are the same four runs).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro import settings
from repro.core.experiment import run_point
from repro.core.results import SimulationResult
from repro.stats.confidence import mean_ci
from repro.workloads.registry import all_names, commercial_names, scientific_names

EVENTS = settings.get("REPRO_EVENTS", 8000)
WARMUP = settings.get("REPRO_WARMUP", 12000)
SEEDS = settings.get("REPRO_SEEDS")

ALL = all_names()
COMMERCIAL = commercial_names()
SCIENTIFIC = scientific_names()


def point(workload: str, key: str, *, seed: int = 0, **kwargs) -> SimulationResult:
    """One simulation point with the bench suite's shared sizing."""
    return run_point(workload, key, seed=seed, events=EVENTS, warmup=WARMUP, **kwargs)


def seeded_runtime(workload: str, key: str, **kwargs) -> float:
    """Mean runtime across the configured seed count."""
    samples = [point(workload, key, seed=s, **kwargs).runtime for s in range(SEEDS)]
    return mean_ci(samples).mean


def speedup_pct(base: SimulationResult, enhanced: SimulationResult) -> float:
    return 100.0 * (base.runtime / enhanced.runtime - 1.0)


def improvement_pct(workload: str, key: str, base_key: str = "base", **kwargs) -> float:
    """Percent improvement of ``key`` over ``base_key``, using mean
    runtimes across ``REPRO_SEEDS`` seeds (the paper's variability
    methodology reduced to its point estimate)."""
    base = seeded_runtime(workload, base_key, **kwargs)
    enhanced = seeded_runtime(workload, key, **kwargs)
    return 100.0 * (base / enhanced - 1.0)


def print_header(title: str, columns: Iterable[str]) -> None:
    print()
    print(f"=== {title} ===")
    print(f"{'workload':10s}" + "".join(f"{c:>14s}" for c in columns))


def print_row(workload: str, values: Iterable[float], fmt: str = "{:14.2f}") -> None:
    print(f"{workload:10s}" + "".join(fmt.format(v) for v in values))


def matrix(workloads: Iterable[str], keys: Iterable[str], **kwargs) -> Dict[Tuple[str, str], SimulationResult]:
    return {(w, k): point(w, k, **kwargs) for w in workloads for k in keys}
