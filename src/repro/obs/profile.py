"""Profiling hooks: where does the simulator's wall-clock go?

Two engines behind one report shape:

* ``cprofile`` — wraps the run in :mod:`cProfile` and aggregates the
  deterministic per-function totals by *component* (the ``repro.*``
  module that owns the function), giving exact self-time and call
  counts at ~2x slowdown;
* ``sampler`` — a cheap built-in statistical profiler: a background
  thread snapshots the main thread's stack via ``sys._current_frames``
  at a fixed cadence and buckets the innermost ``repro`` frame by
  component, costing a few percent instead of 2x (counts are samples,
  not calls).

Both report per-phase wall-clock (warmup vs measure), events/sec and
the per-component table; ``repro profile -o`` writes that report as
JSON (:meth:`ProfileReport.to_dict`).
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional


def component_of(filename: str) -> Optional[str]:
    """Map a source path to its ``repro`` component (dotted module path
    below ``repro``), or None for frames outside the package."""
    marker = "repro/"
    pos = filename.rfind(marker)
    if pos < 0:
        return None
    tail = filename[pos + len(marker):]
    if tail.endswith(".py"):
        tail = tail[:-3]
    if tail.endswith("__init__"):
        tail = tail[:-len("/__init__")] or "repro"
    return tail.replace("/", ".") or "repro"


@dataclass
class ComponentTime:
    """Self-time attributed to one simulator component."""

    name: str
    self_time_s: float = 0.0
    calls: int = 0  # cprofile: primitive calls; sampler: samples


@dataclass
class ProfileReport:
    """One profiled simulation point."""

    workload: str
    config: str
    engine: str
    events: int  # total trace events (warmup + measured, all cores)
    warmup_wall_s: float
    measure_wall_s: float
    events_per_sec: float
    components: List[ComponentTime] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "config": self.config,
            "engine": self.engine,
            "events": self.events,
            "warmup_wall_s": self.warmup_wall_s,
            "measure_wall_s": self.measure_wall_s,
            "events_per_sec": self.events_per_sec,
            "components": [
                {"name": c.name, "self_time_s": c.self_time_s, "calls": c.calls}
                for c in self.components
            ],
        }


class StackSampler:
    """Sample the calling thread's stack from a helper thread.

    ``interval_s`` trades resolution for overhead; at the default 2 ms
    the probe costs a few percent and a one-second run yields ~500
    samples.  Self-time is attributed to the innermost frame inside the
    ``repro`` package (frames outside it fall into ``<other>``).
    """

    def __init__(self, interval_s: float = 0.002) -> None:
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval_s = interval_s
        self.samples: Dict[str, int] = {}
        self.total_samples = 0
        self._target: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "StackSampler":
        self._target = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        return None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(self._target)
            bucket = "<other>"
            while frame is not None:
                name = component_of(frame.f_code.co_filename)
                if name is not None:
                    bucket = name
                    break
                frame = frame.f_back
            self.samples[bucket] = self.samples.get(bucket, 0) + 1
            self.total_samples += 1

    def components(self, wall_s: float) -> List[ComponentTime]:
        """Scale sample counts to seconds of ``wall_s``."""
        total = self.total_samples or 1
        out = [
            ComponentTime(name, self_time_s=wall_s * count / total, calls=count)
            for name, count in self.samples.items()
        ]
        out.sort(key=lambda c: -c.self_time_s)
        return out


def _components_from_pstats(stats: pstats.Stats) -> List[ComponentTime]:
    by_component: Dict[str, ComponentTime] = {}
    for (filename, _line, _name), (pcalls, _ncalls, tottime, _cum, _callers) in stats.stats.items():
        name = component_of(filename) or "<other>"
        entry = by_component.setdefault(name, ComponentTime(name))
        entry.self_time_s += tottime
        entry.calls += pcalls
    out = sorted(by_component.values(), key=lambda c: -c.self_time_s)
    return out


def profile_point(
    workload: str,
    key: str,
    *,
    events: int = 6_000,
    warmup: Optional[int] = None,
    n_cores: int = 8,
    scale: int = 4,
    seed: int = 0,
    engine: str = "cprofile",
) -> ProfileReport:
    """Run one (workload, config) point under a profiler.

    The point runs through :meth:`CMPSystem.run`, so ambient observer
    outputs (``REPRO_TRACE`` and friends) and telemetry apply as they
    do to ``repro run``.  ``engine`` is ``"cprofile"`` (exact, ~2x
    slower) or ``"sampler"`` (statistical, cheap).  The returned events/sec includes the profiler's own
    overhead — compare like with like.
    """
    from repro.core.system import CMPSystem
    from repro.params import make_config

    if engine not in ("cprofile", "sampler"):
        raise ValueError(f"unknown profile engine {engine!r}")
    warmup = events if warmup is None else warmup
    config = make_config(key, n_cores=n_cores, scale=scale)
    system = CMPSystem(config, workload, seed=seed)
    total_events = (events + warmup) * n_cores

    if engine == "cprofile":
        profiler = cProfile.Profile()
        profiler.runcall(system.run, events, warmup_events=warmup, config_name=key)
        components = _components_from_pstats(pstats.Stats(profiler))
    else:
        with StackSampler() as sampler:
            system.run(events, warmup_events=warmup, config_name=key)
    wall = system.warmup_wall_s + system.measure_wall_s
    if engine == "sampler":
        components = sampler.components(wall)
    return ProfileReport(
        workload=workload,
        config=key,
        engine=engine,
        events=total_events,
        warmup_wall_s=system.warmup_wall_s,
        measure_wall_s=system.measure_wall_s,
        events_per_sec=total_events / wall if wall > 0 else 0.0,
        components=components,
    )
