"""CMPSystem: the assembled machine plus its workload.

This is the library's main entry object: construct one from a
:class:`SystemConfig` and a workload name (or spec), then
:meth:`run` it for a number of trace events per core.
"""

from __future__ import annotations

import heapq
import time
from itertools import islice
from typing import List, Optional, Union

from repro import settings
from repro.core.hierarchy import MemoryHierarchy
from repro.core.results import SimulationResult
from repro.cpu.core import CoreTimingModel
from repro.obs import telemetry as _telemetry
from repro.params import SystemConfig
from repro.workloads.base import TraceGenerator, WorkloadSpec
from repro.workloads.linked import HeapModel
from repro.workloads.registry import get_spec
from repro.workloads.values import ValueModel


class CMPSystem:
    def __init__(
        self,
        config: SystemConfig,
        workload: Union[str, WorkloadSpec, None] = None,
        seed: int = 0,
        trace: "object" = None,
    ) -> None:
        """Build the machine around either a live workload generator
        (``workload``) or a recorded trace (``trace``, a
        :class:`repro.trace.TracePack`); a trace replays identical work
        under every configuration.
        """
        if (workload is None) == (trace is None):
            raise ValueError("provide exactly one of workload or trace")
        self.config = config
        if trace is not None:
            if trace.n_cores != config.n_cores:
                raise ValueError(
                    f"trace has {trace.n_cores} cores, config has {config.n_cores}"
                )
            self.spec = get_spec(trace.workload)
            seed = trace.header.seed
        else:
            self.spec = get_spec(workload) if isinstance(workload, str) else workload
        self.seed = seed
        # Linked-data workloads carry a deterministic heap graph shared by
        # the trace generators (which walk it), the value model (which
        # sizes its pointer bytes) and the pointer-chase prefetcher
        # (which scans them).  One object, one topology.
        heap = None
        if self.spec.pointer_fraction > 0:
            heap = HeapModel.from_spec(self.spec, seed=seed)
        self.values = ValueModel(
            self.spec.value_mix, seed=seed, scheme=config.l2.scheme, heap=heap
        )
        self.hierarchy = MemoryHierarchy(config, self.values)
        self.cores: List[CoreTimingModel] = [
            CoreTimingModel(i, cpi_base=self.spec.cpi_base, tolerance=self.spec.tolerance)
            for i in range(config.n_cores)
        ]
        # Per-core event sources: endless replays of a recorded trace,
        # chunked generator streams otherwise.
        if trace is not None:
            self._generators = [trace.iterator(i) for i in range(config.n_cores)]
        else:
            self._generators = [
                TraceGenerator(
                    self.spec,
                    core_id=i,
                    n_cores=config.n_cores,
                    l2_lines=config.l2.n_lines,
                    l1i_lines=config.l1i.n_lines,
                    seed=seed,
                    heap=heap,
                ).events()
                for i in range(config.n_cores)
            ]
        #: Wall seconds of the last completed run's two segments.
        self.warmup_wall_s = self.measure_wall_s = 0.0
        # Opt-in observers (audit, trace, metrics, attribution), strictly
        # read-only: results are bit-identical with any of them on or off.
        # All off, the one observer reference is None everywhere and no
        # observer module is imported; otherwise repro.obs.observers arms
        # the requested sensors on one hub.
        wanted = settings.observers(config)
        if any(wanted.values()):
            from repro.obs.observers import arm

            self.hierarchy.observe(arm(config, self.hierarchy, wanted))

    # The system's observer reference is its hierarchy's.
    observer = property(lambda self: self.hierarchy.observer)
    # Plain handles on the armed sensors, for the CLI and tests (None when off).
    auditor = property(lambda self: getattr(self.observer, "auditor", None))
    tracer = property(lambda self: getattr(self.observer, "tracer", None))
    sampler = property(lambda self: getattr(self.observer, "sampler", None))

    # ------------------------------------------------------------------

    def run(
        self,
        events_per_core: int,
        warmup_events: Optional[int] = None,
        config_name: Optional[str] = None,
    ) -> SimulationResult:
        """Warm up, reset stats, measure, and return the result.

        Cores are interleaved on a min-heap of local clocks so shared
        resources see causally-ordered contention, mirroring how GEMS
        interleaves processors at cycle granularity.
        """
        if events_per_core <= 0:
            raise ValueError("events_per_core must be positive")
        if warmup_events is None:
            warmup_events = events_per_core // 2
        name = config_name or self.config.describe()
        observer = self.observer
        t0 = time.perf_counter()
        try:
            if observer is not None:
                observer.run_phase("warmup", max(core.time for core in self.cores))
            if warmup_events > 0:
                self._run_events(warmup_events)
            self.reset_stats()
            t1 = time.perf_counter()
            if observer is not None:
                observer.run_phase("measure", max(core.time for core in self.cores))
            self._run_events(events_per_core)
        finally:
            if observer is not None:
                observer.run_end()
        t2 = time.perf_counter()
        self.warmup_wall_s, self.measure_wall_s = t1 - t0, t2 - t1
        result = self.collect(name, events_per_core)
        if _telemetry.enabled():
            measured = events_per_core * self.config.n_cores
            _telemetry.emit(
                "simulate",
                workload=self.spec.name,
                config=self.config.describe(),
                seed=self.seed,
                events=measured,
                warmup_events=warmup_events * self.config.n_cores,
                warmup_wall_s=t1 - t0,
                measure_wall_s=t2 - t1,
                wall_s=t2 - t0,
                events_per_sec=measured / (t2 - t1) if t2 > t1 else 0.0,
                settings=settings.from_env(),
                **(observer.telemetry() if observer is not None else {}),
            )
        if observer is not None:
            observer.write_outputs()
        return result

    def _run_events(self, events_per_core: int) -> None:
        # Hot loop: the core timing model (advance_compute /
        # apply_memory_latency) is inlined here with per-core state held
        # in locals, and written back once at the end.  The arithmetic is
        # kept bit-identical to CoreTimingModel's methods.  Each core's
        # source is cut to this run's events by ``islice``: a spent core
        # raises StopIteration at its next turn and leaves the heap.
        cores = self.cores
        n = len(cores)
        heap = [(core.time, i) for i, core in enumerate(cores)]
        heapq.heapify(heap)
        next_event = [islice(g, events_per_core).__next__ for g in self._generators]
        access = self.hierarchy.access
        pop, replace = heapq.heappop, heapq.heapreplace
        times = [core.time for core in cores]
        cpi = [core.cpi_base for core in cores]
        keep = [1.0 - core.tolerance for core in cores]
        hide = [core.hide_cycles for core in cores]
        instr = [0] * n
        stall = [0.0] * n
        ifetch = [0] * n
        processed = 0  # counted only while the auditor is armed
        auditor = self.auditor
        audit_every = auditor.interval if auditor is not None else 0
        if audit_every:
            h = self.hierarchy
            base_accesses = h.l1i_stats.demand_accesses + h.l1d_stats.demand_accesses
        # Interval metrics sampling: one float compare per event when
        # enabled, one ``is not None`` test when disabled.  Retired
        # instructions live in the ``instr`` locals until the loop ends,
        # so the cumulative count is handed to the sampler explicitly.
        sampler = self.sampler
        next_sample = sampler.next_due if sampler is not None else None
        if sampler is not None:
            inst_base = sum(core.stats.instructions for core in cores)
        while heap:
            # Peek the earliest core; re-seat it with heapreplace (one
            # sift) instead of a pop + push pair when it continues.
            idx = heap[0][1]
            try:
                gap, kind, addr = next_event[idx]()
            except StopIteration:
                pop(heap)
                continue
            t = times[idx]
            if gap:
                t += gap * cpi[idx]
                instr[idx] += gap
            latency, l1_hit = access(idx, kind, addr, t)
            # A partial L1 hit (a prefetch still in flight) stalls too.
            if not l1_hit and latency > 0.0:
                over = latency - hide[idx]
                if over > 0.0:
                    s = over * keep[idx]
                    t += s
                    stall[idx] += s
            times[idx] = t
            if not kind:  # IFETCH
                ifetch[idx] += 1
            replace(heap, (t, idx))
            if audit_every:
                processed += 1
                if not processed % audit_every:
                    auditor.check(expected_l1_accesses=base_accesses + processed)
                    self.observer.audit_check(t)  # the auditor implies an observer
            if next_sample is not None and t >= next_sample:
                next_sample = sampler.sample(self, t, float(inst_base + sum(instr)))
        if audit_every:
            auditor.check(expected_l1_accesses=base_accesses + processed)
        for i, core in enumerate(cores):
            core.time = times[i]
            st = core.stats
            st.instructions += instr[i]
            st.memory_stall_cycles += stall[i]
            st.ifetch_accesses += ifetch[i]
            st.data_accesses += events_per_core - ifetch[i]
            st.cycles = times[i] - core.start_time

    def reset_stats(self) -> None:
        self.hierarchy.reset_stats()
        for core in self.cores:
            core.reset_stats()

    def collect(self, config_name: str, events_per_core: int) -> SimulationResult:
        h = self.hierarchy
        elapsed = max(core.stats.cycles for core in self.cores)
        instructions = sum(core.stats.instructions for core in self.cores)
        stalls = 0.0
        for core in self.cores:  # left to right: sum() compensates from 3.12
            stalls += core.stats.memory_stall_cycles
        extra = {
            "link_occupancy": h.link.occupancy(elapsed),
            "dram_demand": float(h.dram.demand_requests),
            "dram_prefetch": float(h.dram.prefetch_requests),
            "l2_adaptive_counter": float(h.l2_adaptive.counter),
            "n_cores": float(self.config.n_cores),
            # Mean per-core stall cycles, comparable to elapsed_cycles.
            "memory_stall_cycles": stalls / len(self.cores),
        }
        # Feature-gated keys: added only when the feature is configured,
        # so default-config fingerprints are unchanged by their existence.
        if self.config.memory.row_buffer:
            extra["dram_row_hits"] = float(h.dram.row_hits)
            extra["dram_row_misses"] = float(h.dram.row_misses)
        if h.mshr is not None:
            extra["mshr_allocations"] = float(h.mshr.allocations)
            extra["mshr_coalesced"] = float(h.mshr.coalesced)
            extra["mshr_demand_stalls"] = float(h.mshr.stalls)
            extra["mshr_peak_occupancy"] = float(h.mshr.peak_occupancy)
        if h.wb is not None:
            extra["wb_inserted"] = float(h.wb.inserted)
            extra["wb_full_stalls"] = float(h.wb.full_stalls)
            extra["wb_peak_occupancy"] = float(h.wb.peak_occupancy)
        if self.observer is not None:
            extra.update(self.observer.extra())
        return SimulationResult(
            workload=self.spec.name,
            config_name=config_name,
            seed=self.seed,
            elapsed_cycles=elapsed,
            instructions=instructions,
            l1i=h.l1i_stats,
            l1d=h.l1d_stats,
            l2=h.l2_stats,
            prefetch=dict(h.pf_stats),
            link=h.link.stats,
            compression=h.compression_stats,
            clock_ghz=self.config.clock_ghz,
            events=events_per_core * self.config.n_cores,
            extra=extra,
            taxonomy={name: h.taxonomy.level(name) for name in ("l1i", "l1d", "l2")},
            latency={name: hist.summary() for name, hist in h.latency_hist.items()},
        )
