"""Observability for the simulator: invariant auditing, run telemetry,
event tracing, time-series metrics, causal attribution and profiling.

Auditing (``repro.obs.audit``), tracing (``repro.obs.trace``, the only
code that knows the trace format), interval metrics
(``repro.obs.metrics``) and attribution (``repro.obs.attribution``)
reach the simulator through one hook path, ``repro.obs.observers``:
each emitting component holds one observer reference, None when all are
off, else a hub forwarding each scalar event to the sensors taking it.
``repro.obs.telemetry`` appends JSONL records of how runs performed,
``repro.obs.profile`` measures where the simulator's own wall-clock
goes, and ``repro.obs.progress`` renders live sweep progress.
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
