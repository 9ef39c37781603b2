"""Time-series metrics: a registry of named metrics plus an interval
sampler that snapshots them every N simulated cycles.

End-of-run aggregates hide phase behaviour — the adaptive throttle
ramping, the compressed-line fraction drifting, link utilization spiking
under a prefetch burst.  The sampler rides inside the simulator's event
loop (one comparison per trace event when enabled, one ``is not None``
branch when disabled) and snapshots the registered metrics into a
columnar time series that exports as CSV or JSONL and renders as
terminal phase charts (``repro run --metrics``).

Two metric kinds:

* **gauge** — the metric's instantaneous value, read from live state
  (e.g. the adaptive prefetch counter);
* **rate** — ``Δnumerator / Δdenominator`` over the sampling interval,
  where both sides are cumulative counters read from live state (e.g.
  interval L2 miss rate = Δmisses / Δaccesses).  Rates make each row a
  *phase* measurement instead of a run-so-far average.

Sampling is strictly read-only: metric callables must not mutate the
system, and results with metrics enabled are bit-identical to a plain
run.  :meth:`IntervalSampler.on_reset` re-bases every rate's previous
snapshot when :meth:`CMPSystem.reset_stats` zeroes the counters, so the
first post-warmup row never sees negative deltas.

Enable via ``SystemConfig.metrics=True``; ``repro run --metrics PATH``
does so and writes the series to PATH (``.csv`` suffix selects CSV,
anything else JSONL).  ``SystemConfig.metrics_interval`` (``repro run
--interval``) sets the cadence in simulated cycles.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import durable
from repro.obs.attribution import AttributionLedger

#: A metric reads the live system; it must never mutate it.
MetricFn = Callable[["object"], float]


class MetricsRegistry:
    """Named metrics, sampled in registration order."""

    def __init__(self) -> None:
        self._gauges: Dict[str, MetricFn] = {}
        self._rates: Dict[str, Tuple[MetricFn, MetricFn]] = {}
        self._order: List[str] = []

    def gauge(self, name: str, fn: MetricFn) -> "MetricsRegistry":
        """Register an instantaneous metric."""
        self._add(name)
        self._gauges[name] = fn
        return self

    def rate(self, name: str, numerator: MetricFn, denominator: MetricFn) -> "MetricsRegistry":
        """Register an interval metric ``Δnumerator / Δdenominator``
        (0.0 when the denominator did not move)."""
        self._add(name)
        self._rates[name] = (numerator, denominator)
        return self

    def _add(self, name: str) -> None:
        if name in self._gauges or name in self._rates:
            raise ValueError(f"metric {name!r} already registered")
        self._order.append(name)

    def names(self) -> List[str]:
        return list(self._order)

    def is_rate(self, name: str) -> bool:
        return name in self._rates

    def read_raw(self, system) -> Dict[str, float]:
        """Cumulative numerator/denominator values for every rate metric."""
        raw: Dict[str, float] = {}
        for name, (num, den) in self._rates.items():
            raw[f"{name}.num"] = num(system)
            raw[f"{name}.den"] = den(system)
        return raw

    def read_gauges(self, system) -> Dict[str, float]:
        return {name: fn(system) for name, fn in self._gauges.items()}


def _l1i(s):
    return s.hierarchy.l1i_stats


def _l1d(s):
    return s.hierarchy.l1d_stats


def _l2(s):
    return s.hierarchy.l2_stats


def _pf2(s):
    return s.hierarchy.pf_stats["l2"]


def _compr(s):
    return s.hierarchy.compression_stats


#: What the attribution columns read when the tracker is off: zeros.
_NO_ATTRIBUTION = AttributionLedger()


def _attr(s):
    return getattr(s.observer, "attribution", None) or _NO_ATTRIBUTION


def default_registry() -> MetricsRegistry:
    """The standard metric set: IPC, miss rates, compression, link
    utilization, prefetch quality, and the adaptive counters.

    ``ipc`` is declared as a rate over ``instructions``/``cycle`` raw
    values that the sampler itself injects (the event loop holds retired
    instruction counts in locals until the phase ends, so no system
    attribute can supply them mid-run).
    """
    r = MetricsRegistry()
    # ipc's numerator/denominator are provided by the sampler; the fns
    # here are placeholders that read the injected values.
    r.rate("ipc", lambda s: getattr(s, "_sampler_instructions", 0.0),
           lambda s: getattr(s, "_sampler_cycle", 0.0))
    r.rate("l1i_miss_rate",
           lambda s: float(_l1i(s).demand_misses),
           lambda s: float(_l1i(s).demand_accesses))
    r.rate("l1d_miss_rate",
           lambda s: float(_l1d(s).demand_misses),
           lambda s: float(_l1d(s).demand_accesses))
    r.rate("l2_miss_rate",
           lambda s: float(_l2(s).demand_misses),
           lambda s: float(_l2(s).demand_accesses))
    r.rate("compressed_frac",
           lambda s: float(_compr(s).compressed_lines),
           lambda s: float(_compr(s).compressed_lines + _compr(s).uncompressed_lines))
    r.rate("avg_segments",
           lambda s: float(_compr(s).segment_sum),
           lambda s: float(_compr(s).compressed_lines + _compr(s).uncompressed_lines))
    # Link utilization: bytes moved per cycle of link capacity.  With
    # infinite pins the denominator callable reports 0, so the column
    # reads 0.0 rather than dividing by a fictional capacity.
    r.rate("link_util",
           lambda s: float(s.hierarchy.link.stats.bytes_total),
           lambda s: (s.hierarchy.link.bytes_per_cycle or 0.0)
           * getattr(s, "_sampler_cycle", 0.0))
    r.rate("pf_l2_accuracy",
           lambda s: float(_pf2(s).useful),
           lambda s: float(_pf2(s).issued))
    r.rate("pf_l2_coverage",
           lambda s: float(_pf2(s).useful),
           lambda s: float(_pf2(s).useful + _l2(s).demand_misses))
    # Timeliness: of the prefetches that were used, the fraction that
    # had fully arrived (a partial hit = used but late).
    r.rate("pf_l2_timeliness",
           lambda s: float(_l2(s).prefetch_hits),
           lambda s: float(_l2(s).prefetch_hits + _l2(s).partial_hits))
    r.gauge("adaptive_l2", lambda s: float(s.hierarchy.l2_adaptive.counter))
    r.gauge("compression_counter",
            lambda s: float(s.hierarchy.compression_policy.counter))
    # Live MSHR occupancy at the sample instant (0.0 when the MSHR file
    # is not configured).  Reading prunes arrived entries against the
    # asking time, which is the structure's normal lazy bookkeeping —
    # not a mutation of simulated behaviour.
    r.gauge("mshr_occupancy",
            lambda s: float(s.hierarchy.mshr.occupancy(
                getattr(s, "_sampler_cycle", 0.0)))
            if s.hierarchy.mshr is not None else 0.0)
    # Causal-attribution interval rates (repro.obs.attribution); the
    # columns read 0.0 when the tracker is off.  As rates over
    # cumulative counters they sample the *interval's* pollution share
    # and prefetch usefulness, not the running total.
    r.rate("attr_pollution_rate",
           lambda s: float(_attr(s).miss_class["pollution"]),
           lambda s: float(_attr(s).classified_misses()))
    r.rate("attr_compulsory_rate",
           lambda s: float(_attr(s).miss_class["compulsory"]),
           lambda s: float(_attr(s).classified_misses()))
    r.rate("attr_pf_useful_rate",
           lambda s: float(_attr(s).pf_useful),
           lambda s: float(_attr(s).pf_useful + _attr(s).pf_useless))
    r.gauge("attr_comp_avoided_hits",
            lambda s: float(_attr(s).comp_avoided_hits))
    return r


class IntervalSampler:
    """Snapshots a registry every ``interval`` simulated cycles.

    The event loop drives :meth:`due` / :meth:`sample`; rows accumulate
    columnar (one list per column) for cheap CSV/JSONL export.  All
    reads go through the live ``system`` object each time — never cached
    stats references — so a ``reset_stats`` (which replaces the stats
    objects wholesale) cannot desynchronise the sampler.
    """

    def __init__(self, interval: int = 5000,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.interval = int(interval)
        if self.interval <= 0:
            raise ValueError("metrics interval must be positive")
        self.registry = registry if registry is not None else default_registry()
        self.columns = ["cycle"] + self.registry.names()
        self.series: Dict[str, List[float]] = {name: [] for name in self.columns}
        self.samples = 0
        self._next_due = float(self.interval)
        self._prev_raw: Optional[Dict[str, float]] = None

    @property
    def next_due(self) -> float:
        """Simulated time of the next sample (event loop compares its
        clock against this; one float compare per event)."""
        return self._next_due

    def sample(self, system, t: float, instructions: float) -> float:
        """Record one row at simulated time ``t``; returns the next due
        time.  ``instructions`` is the cumulative retired-instruction
        count since the last stats reset (the event loop owns it)."""
        # Inject the loop-owned cumulative values the registry's ipc /
        # link_util rates read; plain attributes on the system object,
        # removed from no code path the simulator reads.
        system._sampler_instructions = instructions
        system._sampler_cycle = t
        raw = self.registry.read_raw(system)
        prev = self._prev_raw
        row: Dict[str, float] = {"cycle": t}
        for name in self.registry.names():
            if self.registry.is_rate(name):
                num = raw[f"{name}.num"] - (prev[f"{name}.num"] if prev else 0.0)
                den = raw[f"{name}.den"] - (prev[f"{name}.den"] if prev else 0.0)
                row[name] = num / den if den else 0.0
            else:
                row[name] = 0.0  # filled below
        for name, value in self.registry.read_gauges(system).items():
            row[name] = value
        for name in self.columns:
            self.series[name].append(row[name])
        self.samples += 1
        self._prev_raw = raw
        while self._next_due <= t:
            self._next_due += self.interval
        return self._next_due

    def on_reset(self) -> None:
        """Called when the system zeroes its stats: re-base every rate's
        previous snapshot so the next interval's deltas start from zero
        instead of going negative."""
        self._prev_raw = None

    # -- export -------------------------------------------------------------

    def rows(self) -> List[Dict[str, float]]:
        return [
            {name: self.series[name][i] for name in self.columns}
            for i in range(self.samples)
        ]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(self.columns)
        for i in range(self.samples):
            writer.writerow([repr(self.series[name][i]) for name in self.columns])
        return out.getvalue()

    def to_jsonl(self) -> str:
        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in self.rows())

    def write(self, path: str) -> None:
        text = self.to_csv() if path.endswith(".csv") else self.to_jsonl()
        durable.atomic_write(path, text.encode("utf-8"))
