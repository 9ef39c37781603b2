"""repro: a reproduction of "Interactions Between Compression and
Prefetching in Chip Multiprocessors" (Alameldeen & Wood, HPCA 2007).

A trace-driven CMP memory-system simulator with:

* Frequent Pattern Compression and a decoupled variable-segment L2;
* link (pin) compression with flit-level message sizing;
* Power4-style L1I/L1D/L2 stride prefetchers;
* the paper's adaptive prefetch throttle built on compression's spare
  address tags;
* MSI coherence, a shared banked L2, a bandwidth-limited pin link, and
  synthetic workload models of the paper's eight benchmarks.

Quickstart::

    from repro import CMPSystem, SystemConfig

    config = SystemConfig().scaled(4).with_features(
        cache_compression=True, link_compression=True, prefetching=True)
    result = CMPSystem(config, "zeus", seed=0).run(events_per_core=20_000)
    print(result.summary())
"""

from repro._lazy import lazy_exports

lazy_exports(globals(), {
    "repro.params": (
        "CacheConfig", "L2Config", "LinkConfig", "MemoryConfig",
        "PrefetchConfig", "SystemConfig", "CONFIG_FEATURES", "make_config",
    ),
    "repro.core.system": ("CMPSystem",),
    "repro.core.experiment": (
        "clear_cache", "run_matrix", "run_point", "run_seeds",
    ),
    "repro.core.diskcache": ("DiskCache",),
    "repro.core.interaction": (
        "InteractionBreakdown", "interaction_coefficient", "speedup",
    ),
    "repro.core.missclass": ("MissClassification", "classify_misses"),
    "repro.core.runner": ("ParallelRunner", "PointError"),
    "repro.core.results": ("PrefetcherReport", "SimulationResult"),
    "repro.workloads.registry": ("WORKLOADS", "get_spec"),
    "repro.workloads.base": ("WorkloadSpec",),
    "repro.stats.confidence": ("ConfidenceInterval", "mean_ci"),
    "repro.trace.io": ("TracePack", "record_trace"),
    "repro.report.tables": ("Table",),
    "repro.report.charts": ("bar_chart",),
    "repro.report.export": ("results_to_csv", "results_to_json"),
    "repro.obs.audit": (
        "AuditViolation", "Auditor", "Violation", "audit_hierarchy",
    ),
    "repro.core.bottleneck": ("CycleBreakdown", "analyze"),
    "repro.core.sweep": ("Sweep", "SweepResults"),
    "repro.workloads.custom": ("WorkloadBuilder", "derive", "register"),
})

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "L2Config",
    "LinkConfig",
    "MemoryConfig",
    "PrefetchConfig",
    "SystemConfig",
    "CMPSystem",
    "CONFIG_FEATURES",
    "InteractionBreakdown",
    "MissClassification",
    "PrefetcherReport",
    "SimulationResult",
    "classify_misses",
    "clear_cache",
    "DiskCache",
    "ParallelRunner",
    "PointError",
    "interaction_coefficient",
    "make_config",
    "run_matrix",
    "run_point",
    "run_seeds",
    "speedup",
    "WORKLOADS",
    "WorkloadSpec",
    "get_spec",
    "ConfidenceInterval",
    "mean_ci",
    "TracePack",
    "record_trace",
    "Table",
    "bar_chart",
    "results_to_csv",
    "results_to_json",
    "AuditViolation",
    "Auditor",
    "Violation",
    "audit_hierarchy",
    "CycleBreakdown",
    "analyze",
    "Sweep",
    "SweepResults",
    "WorkloadBuilder",
    "derive",
    "register",
    "__version__",
]
