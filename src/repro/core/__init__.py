"""The paper's primary contribution: system assembly, experiments, analysis."""

from repro._lazy import lazy_exports

lazy_exports(globals(), {
    "repro.core.system": ("CMPSystem",),
    "repro.core.results": ("SimulationResult", "PrefetcherReport"),
    "repro.core.interaction": (
        "InteractionBreakdown", "interaction_coefficient", "speedup",
    ),
    "repro.core.missclass": ("MissClassification", "classify_misses"),
    "repro.core.experiment": (
        "clear_cache", "run_matrix", "run_point", "run_seeds",
    ),
    "repro.params": ("CONFIG_FEATURES", "make_config"),
    "repro.core.diskcache": ("DiskCache",),
    "repro.core.runner": ("ParallelRunner", "PointError"),
    "repro.core.sweep": ("Sweep", "SweepResults"),
    "repro.core.bottleneck": ("CycleBreakdown", "analyze"),
})

__all__ = [
    "CMPSystem",
    "SimulationResult",
    "PrefetcherReport",
    "InteractionBreakdown",
    "interaction_coefficient",
    "speedup",
    "MissClassification",
    "classify_misses",
    "CONFIG_FEATURES",
    "clear_cache",
    "make_config",
    "run_matrix",
    "run_point",
    "run_seeds",
    "DiskCache",
    "ParallelRunner",
    "PointError",
    "Sweep",
    "SweepResults",
    "CycleBreakdown",
    "analyze",
]
