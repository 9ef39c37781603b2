"""Profiling hooks: where does the simulator's wall-clock go?

The run is wrapped in :mod:`cProfile`, and the deterministic
per-function totals are aggregated by *component* (the ``repro.*``
module that owns the function), giving exact self-time and call counts
at ~2x slowdown.  The report holds per-phase wall-clock (warmup vs
measure), events/sec and the per-component table; ``repro profile -o``
writes it as JSON (:meth:`ProfileReport.to_dict`).
"""

from __future__ import annotations

import cProfile
import pstats
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
    calls: int = 0  # primitive calls


@dataclass
class ProfileReport:
    """One profiled simulation point."""

    workload: str
    config: str
    events: int  # total trace events (warmup + measured, all cores)
    warmup_wall_s: float
    measure_wall_s: float
    events_per_sec: float
    components: List[ComponentTime] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "config": self.config,
            "engine": "cprofile",
            "events": self.events,
            "warmup_wall_s": self.warmup_wall_s,
            "measure_wall_s": self.measure_wall_s,
            "events_per_sec": self.events_per_sec,
            "components": [
                {"name": c.name, "self_time_s": c.self_time_s, "calls": c.calls}
                for c in self.components
            ],
        }


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
) -> ProfileReport:
    """Run one (workload, config) point under a profiler.

    The point runs through :meth:`CMPSystem.run`, so ambient observer
    outputs (``REPRO_TRACE`` and friends) and telemetry apply as they
    do to ``repro run``.  The returned events/sec includes cProfile's
    own overhead (~2x) — compare like with like.
    """
    from repro.core.system import CMPSystem
    from repro.params import make_config

    warmup = events if warmup is None else warmup
    config = make_config(key, n_cores=n_cores, scale=scale)
    system = CMPSystem(config, workload, seed=seed)
    total_events = (events + warmup) * n_cores

    profiler = cProfile.Profile()
    profiler.runcall(system.run, events, warmup_events=warmup, config_name=key)
    wall = system.warmup_wall_s + system.measure_wall_s
    return ProfileReport(
        workload=workload,
        config=key,
        events=total_events,
        warmup_wall_s=system.warmup_wall_s,
        measure_wall_s=system.measure_wall_s,
        events_per_sec=total_events / wall if wall > 0 else 0.0,
        components=_components_from_pstats(pstats.Stats(profiler)),
    )
