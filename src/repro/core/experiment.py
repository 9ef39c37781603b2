"""Experiment harness: the one way a point is computed, and the
multi-point fan-out above it.

The paper's evaluation sweeps eight workloads across feature
combinations (:data:`~repro.params.CONFIG_FEATURES`, built by
:func:`~repro.params.make_config`; both are re-exported here); every
bench in ``benchmarks/`` builds on the helpers here.
:func:`run_point` computes one point and :func:`run_points` is the one
fan-out above it (workers) that sweeps, matrices and the CLI's
multi-point commands share.  Most figures share configurations
(Figure 9 and Table 5, for example, are the same four runs); the
persistent disk cache (:mod:`repro.core.diskcache`) serves that reuse,
within a process and across processes.  It is the only result store:
it is also what ``repro sweep --resume`` restores a killed sweep from,
since every point is stored the moment it completes.

Default sizing (events, warmup, seeds, scale), the disk cache switch
and every other ``REPRO_*`` knob are declared in :mod:`repro.settings`.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core import diskcache
from repro.core.results import SimulationResult
from repro.core.runner import ParallelRunner, PointError, PointOutcome, PointSpec
from repro import settings
from repro.obs import telemetry as _telemetry
from repro.params import CONFIG_FEATURES, SystemConfig, make_config  # noqa: F401


def _default_warmup() -> int:
    """``REPRO_WARMUP``, falling back to ``REPRO_EVENTS``."""
    return settings.get("REPRO_WARMUP", settings.get("REPRO_EVENTS"))


def _bind(
    workload: str,
    config: Union[str, SystemConfig],
    *,
    name: Optional[str] = None,
    seed: int = 0,
    events: Optional[int] = None,
    warmup: Optional[int] = None,
    use_cache: bool = True,
    **machine,
) -> Tuple[str, SystemConfig, int, int, Optional[str]]:
    """Resolve one point's arguments to (display name, config, events,
    warmup, cache key).  The key is None when the point must not be
    cached: ``use_cache=False``, or an observer is on (its output is a
    side effect of simulating, which a cache hit would skip)."""
    if isinstance(config, str):
        name = name or config
        config = make_config(config, **machine)
    elif machine:
        raise ValueError(
            f"{', '.join(sorted(machine))} cannot be combined with a "
            "SystemConfig; set them on the config"
        )
    events = events if events is not None else settings.get("REPRO_EVENTS")
    warmup = warmup if warmup is not None else _default_warmup()
    key = None
    if use_cache and not config.observed:
        key = diskcache.point_key(config, workload, seed, events, warmup)
    return name or config.describe(), config, events, warmup, key


def run_point(
    workload: str,
    config: Union[str, SystemConfig],
    *,
    name: Optional[str] = None,
    seed: int = 0,
    events: Optional[int] = None,
    warmup: Optional[int] = None,
    use_cache: bool = True,
    **machine,
) -> SimulationResult:
    """Run one (workload, config) data point: the one way a point is
    computed.

    ``config`` is one of the paper's named keys (:data:`CONFIG_FEATURES`;
    ``machine`` then holds :func:`make_config`'s ``n_cores`` / ``scale``
    / ``bandwidth_gbs`` / ``infinite_bandwidth``) or a full
    :class:`SystemConfig`, which takes no ``machine`` arguments.
    ``name`` is the display name on the result, in telemetry and in
    :class:`~repro.core.runner.PointError`; it defaults to the key, or
    to ``config.describe()``.

    Lookup order: the persistent disk cache (when ``REPRO_CACHE`` is
    on), then simulate (and store the result).  ``use_cache=False``
    bypasses the cache in both directions, and so does any observer the
    config turns on (audit, trace, metrics or attribution): an observed
    point is always simulated.  Under ``REPRO_CACHE=0`` every call
    simulates.
    """
    t0 = time.perf_counter()
    name, config, events, warmup, key = _bind(
        workload, config, name=name, seed=seed, events=events, warmup=warmup,
        use_cache=use_cache, **machine,
    )
    store = None
    if key is not None and settings.get("REPRO_CACHE"):
        store = diskcache.DiskCache()
        result = store.get(key)
        if result is not None:
            if result.config_name != name:
                # Equal configs share an entry whatever they are called.
                result = replace(result, config_name=name)
            _emit_point(workload, name, seed, "disk", key, t0)
            return result
    # Imported here, so a process served from the cache never loads
    # the simulator.
    from repro.core.system import CMPSystem

    result = CMPSystem(config, workload, seed=seed).run(
        events, warmup_events=warmup, config_name=name
    )
    if store is not None:
        store.put(key, result)
    _emit_point(workload, name, seed, "sim", key, t0)
    return result


#: Where the most recent run_point result came from (``disk`` /
#: ``sim``) — per process; the parallel runner reads it right after
#: each point to feed the live progress renderer.
_LAST_SOURCE = "sim"


def last_point_source() -> str:
    """Source of the most recent :func:`run_point` in this process."""
    return _LAST_SOURCE


def _emit_point(
    workload: str, name: str, seed: int, source: str, key: Optional[str], t0: float
) -> None:
    """Record where the point came from; telemetry is free when off."""
    global _LAST_SOURCE
    _LAST_SOURCE = source
    if _telemetry.enabled():
        _telemetry.emit(
            "point",
            workload=workload,
            config_key=name,
            seed=seed,
            source=source,
            point_key=key,
            wall_s=time.perf_counter() - t0,
        )


def run_points(
    points: Sequence[PointSpec],
    *,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[PointOutcome]:
    """Compute many points: the one fan-out above :func:`run_point`.

    Outcome ``i`` belongs to ``points[i]``; a point that fails is a
    :class:`~repro.core.runner.PointError` in its slot.  ``jobs`` > 1
    runs the points across worker processes (``None`` runs them
    serially); the outcomes are identical either way.  With the disk
    cache on, the process that computes a point stores it the moment it
    completes, so a run killed partway keeps every finished point and a
    rerun restores them from the cache.
    """
    return ParallelRunner(jobs or 1).run_points(points, progress=progress)


def _point_key(point: PointSpec) -> Optional[str]:
    """A point's cache key (None when it is never cached)."""
    (workload, config), kwargs = point
    return _bind(workload, config, **kwargs)[4]


def stored_points(points: Sequence[PointSpec]) -> int:
    """How many of ``points`` already have an entry in the disk cache
    (whether or not ``REPRO_CACHE`` is on)."""
    store = diskcache.DiskCache()
    keys = (_point_key(point) for point in points)
    return sum(
        1 for key in keys
        if key is not None and os.path.exists(store.path_for(key))
    )


def completed(outcomes: Sequence[PointOutcome]) -> List[SimulationResult]:
    """The results of :func:`run_points`; raise on the first failure."""
    for outcome in outcomes:
        if isinstance(outcome, PointError):
            raise RuntimeError(
                f"simulation of {outcome.workload}/{outcome.key} failed: "
                f"{outcome.error}\n{outcome.traceback}"
            )
    return list(outcomes)  # type: ignore[arg-type]


def run_seeds(
    workload: str,
    key: Union[str, SystemConfig],
    seeds: Optional[int] = None,
    jobs: Optional[int] = None,
    **kwargs,
) -> List[SimulationResult]:
    """One result per seed (the paper's variability methodology).

    ``jobs`` > 1 runs the seeds across worker processes.
    """
    n = seeds if seeds is not None else settings.get("REPRO_SEEDS")
    points = [((workload, key), dict(kwargs, seed=s)) for s in range(n)]
    return completed(run_points(points, jobs=jobs))


def run_matrix(
    workloads: Iterable[str],
    keys: Iterable[str],
    jobs: Optional[int] = None,
    **kwargs,
) -> Dict[Tuple[str, str], SimulationResult]:
    """Cartesian sweep used by most figures.

    ``jobs`` > 1 runs the grid across worker processes; the returned
    mapping is identical to a serial run.
    """
    coords = [(w, k) for w in workloads for k in keys]
    points = [(coord, dict(kwargs)) for coord in coords]
    return dict(zip(coords, completed(run_points(points, jobs=jobs))))


def clear_cache() -> None:
    """Empty the persistent on-disk result cache (``repro cache clear``)."""
    diskcache.DiskCache().clear()
