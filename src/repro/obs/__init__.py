"""Observability for the simulator: invariant auditing, run telemetry,
event tracing, time-series metrics and profiling.

``repro.obs.audit`` re-derives the model's structural and accounting
invariants (inclusion, directory consistency, segment budgets, stats
conservation) and raises :class:`~repro.obs.audit.AuditViolation` when
the live state disagrees; ``repro.obs.telemetry`` appends JSONL records
describing how runs performed (phase wall-clock, events/sec, disk-cache
traffic).  ``repro.obs.trace`` records simulated-time spans and instants
for Perfetto/Chrome trace viewing, ``repro.obs.metrics`` samples a
columnar time series of IPC/miss-rate/compression/link/prefetch metrics,
``repro.obs.profile`` measures where the simulator's own wall-clock
goes, and ``repro.obs.progress`` renders live sweep progress.  All are
opt-in and, when off, cost (nearly) nothing on the hot path.
"""

from repro._lazy import lazy_exports

lazy_exports(globals(), {
    "repro.obs.audit": (
        "AuditViolation", "Auditor", "Violation", "audit_hierarchy",
    ),
    "repro.obs.telemetry": ("telemetry",),
    "repro.obs.metrics": (
        "IntervalSampler", "MetricsRegistry", "default_registry",
    ),
    "repro.obs.progress": ("SweepProgress", "default_progress"),
    "repro.obs.trace": ("Tracer", "validate_trace"),
})

__all__ = [
    "AuditViolation",
    "Auditor",
    "IntervalSampler",
    "MetricsRegistry",
    "SweepProgress",
    "Tracer",
    "Violation",
    "audit_hierarchy",
    "default_progress",
    "default_registry",
    "telemetry",
    "validate_trace",
]
