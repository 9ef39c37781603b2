"""Outside-in span tracing: host self time per simulator layer.

The simulator carries no span instrumentation of its own.  This module
wraps the public entry points of each layer -- at class level, because
the cache and prefetcher classes use ``__slots__``, or at module level
for the codec functions -- records a span around every call, and
restores the originals afterwards.  Wrappers only time and count; they
never touch arguments or results, so a traced run must reproduce the
untraced run's ``result_fingerprint`` exactly.

A layer's self time is its span's duration minus the time its child
spans cover.  The two root spans (``system.setup`` around
``CMPSystem.__init__`` and ``system.loop`` around ``CMPSystem.run``)
therefore absorb everything not claimed by a deeper layer: the event
heap, the inlined core timing model and ``collect``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, module, class or None for module functions, attribute names).
#: A layer may span several entry points; repeated layers accumulate.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("system.setup", "repro.core.system", "CMPSystem", ("__init__",)),
    ("system.loop", "repro.core.system", "CMPSystem", ("run",)),
    ("workloads.values", "repro.workloads.values", "ValueModel",
     ("segments_for", "line_words")),
    # The value model binds the FPC codec by name at import time, so the
    # FPC entry points are wrapped where it looks them up.  BDI is
    # imported inside ValueModel.__init__, so its module attributes are.
    ("compression", "repro.workloads.values", None,
     ("sizes_for", "fpc_size_bytes")),
    ("compression", "repro.compression.bdi", None,
     ("sizes_for", "compressed_size_bytes")),
    ("core.hierarchy", "repro.core.hierarchy", "MemoryHierarchy", ("access",)),
    ("cache.l1", "repro.cache.set_assoc", "SetAssocCache",
     ("insert", "invalidate", "victim_match")),
    ("cache.l2", "repro.cache.compressed", "CompressedSetCache",
     ("insert", "resize", "victim_match", "stack_depth")),
    ("prefetch", "repro.prefetch.stride", "StridePrefetcher",
     ("observe_miss", "observe_hit")),
    ("prefetch", "repro.prefetch.pointer", "PointerChasePrefetcher",
     ("observe_miss", "observe_hit")),
    ("interconnect.link", "repro.interconnect.link", "PinLink",
     ("send_request", "send_data")),
    ("memory.dram", "repro.memory.dram", "DRAM",
     ("can_issue", "issue_demand", "issue_prefetch", "service")),
    ("obs.attribution", "repro.obs.attribution", "AttributionTracker",
     ("on_l2_demand_miss", "on_l2_fill", "on_l2_evict", "on_l2_demand_hit",
      "on_l1_fill", "on_l1_evict")),
    ("obs.metrics", "repro.obs.metrics", "IntervalSampler", ("sample",)),
    ("obs.audit", "repro.obs.audit", "Auditor", ("check",)),
)

#: Trace generation is a generator, so its span is each ``next()``.
GEN_LAYER = "workloads.gen"

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for layer, *_ in LAYER_ENTRY_POINTS] + [GEN_LAYER]
))


class SpanLedger:
    """Self time and call count per layer, from nested spans.

    Every open span owns one slot on a stack that accumulates the time
    its children cover.  When a span closes, its duration minus that
    child time is added to its layer's self time, and its whole
    duration is charged to the enclosing span's slot.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self._child: List[float] = [0.0]  # bottom slot: time outside any span

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """Return ``fn`` with a span of ``layer`` around every call."""
        clock = self.clock
        child = self._child
        self_s = self.self_s
        calls = self.calls
        self_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)

        def span(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[layer] += elapsed - child.pop()
                calls[layer] += 1
                child[-1] += elapsed

        span.__wrapped__ = fn
        return span

    def total_s(self) -> float:
        """Sum of all self times: the wall time the root spans covered."""
        return sum(self.self_s.values())

    @contextmanager
    def installed(self) -> Iterator["SpanLedger"]:
        """Wrap every layer entry point for the duration of the block."""
        from repro.workloads.base import TraceGenerator

        wrap = self.wrap
        events = vars(TraceGenerator)["events"]

        def traced_events(generator):
            return _TracedEvents(wrap(GEN_LAYER, events(generator).__next__))

        saved = []
        try:
            for layer, module_name, cls_name, attrs in LAYER_ENTRY_POINTS:
                module = importlib.import_module(module_name)
                owner = getattr(module, cls_name) if cls_name else module
                for attr in attrs:
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(layer, original))
            saved.append((TraceGenerator, "events", events))
            TraceGenerator.events = traced_events
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class _TracedEvents:
    """An event iterator whose ``__next__`` attribute is the span itself.

    The event loop binds ``generator.__next__`` once per run; an
    instance attribute shadows the class method (a non-data descriptor),
    so that lookup returns the span with no extra call layer, while
    ``next()`` still works through the class method.
    """

    def __init__(self, span_next: Callable) -> None:
        self.__next__ = span_next

    def __iter__(self) -> "_TracedEvents":
        return self

    def __next__(self):
        return self.__dict__["__next__"]()
