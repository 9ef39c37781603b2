"""The one hook path from the simulator to its observers.

Every emitting component -- the memory hierarchy, the pin link, the
NoC, DRAM, the adaptive prefetch throttles, the compression policy and
``CMPSystem`` -- holds one ``observer`` reference and calls one event
of :data:`EVENTS` on it, with scalar arguments, behind one ``is not
None`` guard.  The reference is None when every observer is off;
otherwise it is an :class:`Observers` hub, which binds each event once
to the ``on_<event>`` handlers of the armed sensors that take it, so a
new sensor is one class.  Events that carry no clock happen at
:attr:`Observers.now`, the issue time of the access in flight.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict

#: Every event, grouped by emitter; the arguments are those of the
#: ``on_<event>`` handlers in repro.obs.trace and repro.obs.attribution.
EVENTS = (
    # MemoryHierarchy, which also stamps Observers.now once per access
    "bank_busy", "demand_miss_done", "prefetch_done", "mshr_coalesce", "mshr_fetch",
    "l2_demand_hit", "l2_demand_miss", "l2_fill", "l2_evict", "l1_evict", "reset",
    # PinLink, OnChipNetwork, DRAM
    "link_data", "noc_transfer", "dram_service",
    # AdaptiveController, AdaptiveCompressionPolicy: no clock, timed by Observers.now
    "throttle_feedback", "compression_phase",
    # CMPSystem
    "run_phase", "audit_check", "run_end",
)


def _each(handlers, *args) -> None:
    """Forward one event to each of its takers in turn (none: a no-op)."""
    for handler in handlers:
        handler(*args)


class Observers:
    """The armed sensors (None when off) behind one reference; each
    event is an instance attribute bound to its takers' handlers."""

    def __init__(self, auditor=None, tracer=None, sampler=None,
                 attribution=None) -> None:
        self.auditor = auditor
        self.tracer = tracer
        self.sampler = sampler
        self.attribution = attribution
        #: Issue time of the access in flight, stamped by the hierarchy.
        self.now = 0.0
        sensors = [s for s in (tracer, sampler, attribution) if s is not None]
        for event in EVENTS:
            takers = [getattr(s, "on_" + event) for s in sensors if hasattr(s, "on_" + event)]
            setattr(self, event, takers[0] if len(takers) == 1 else partial(_each, takers))
        if tracer is not None:
            tracer.clock = self
            if attribution is not None:
                # The trace shows each miss's class, so the tracker
                # classifies first and the tracer draws the result.
                classify, show = attribution.on_l2_demand_miss, tracer.on_miss_class
                self.l2_demand_miss = lambda addr: show(classify(addr), addr)

    def extra(self) -> Dict[str, float]:
        """The ``attr_*`` extras, which ``result_fingerprint`` strips."""
        return self.attribution.to_extra() if self.attribution is not None else {}

    def telemetry(self) -> Dict[str, Any]:
        """Observer fields of the ``simulate`` telemetry record."""
        return {
            "audit_checks": self.auditor.checks_run if self.auditor is not None else 0,
            "attribution": self.attribution is not None,
            "trace_events": len(self.tracer.events) if self.tracer is not None else 0,
            "metrics_samples": self.sampler.samples if self.sampler is not None else 0,
        }


def arm(config, hierarchy) -> Observers:
    """A hub of the sensors whose ``SystemConfig`` fields are on."""
    auditor = tracer = sampler = tracker = None
    if config.audit:
        from repro.obs.audit import Auditor

        auditor = Auditor(hierarchy, config.audit_interval)
    if config.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer(config.n_cores, config.l2.n_banks)
    if config.metrics:
        from repro.obs.metrics import IntervalSampler

        sampler = IntervalSampler(config.metrics_interval)
    if config.attribution:
        from repro.obs.attribution import AttributionTracker

        tracker = AttributionTracker(config, hierarchy.l2.stack_depth)
    return Observers(auditor, tracer, sampler, tracker)
