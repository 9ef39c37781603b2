"""Experiment harness: the paper's feature matrix, env knobs, run caching.

The paper's evaluation sweeps eight workloads across feature
combinations; every bench in ``benchmarks/`` builds on the helpers here.
Runs are cached at two levels: a bounded in-process memo (most figures
share configurations — Figure 9 and Table 5, for example, reuse the
same four runs) backed by the persistent disk cache
(:mod:`repro.core.diskcache`), which survives across processes.

Default sizing (events, warmup, seeds, scale), the memo bound, the disk
cache switch and every other ``REPRO_*`` knob are declared in
:mod:`repro.settings`.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core import diskcache
from repro.core.results import SimulationResult
from repro.core.system import CMPSystem
from repro import settings
from repro.obs import telemetry as _telemetry
from repro.params import SystemConfig

#: The paper's feature combinations, by short name.
CONFIG_FEATURES: Dict[str, Dict[str, bool]] = {
    "base": dict(cache_compression=False, link_compression=False, prefetching=False, adaptive=False),
    "pref": dict(cache_compression=False, link_compression=False, prefetching=True, adaptive=False),
    "adaptive": dict(cache_compression=False, link_compression=False, prefetching=True, adaptive=True),
    "cache_compr": dict(cache_compression=True, link_compression=False, prefetching=False, adaptive=False),
    "link_compr": dict(cache_compression=False, link_compression=True, prefetching=False, adaptive=False),
    "compr": dict(cache_compression=True, link_compression=True, prefetching=False, adaptive=False),
    "pref_compr": dict(cache_compression=True, link_compression=True, prefetching=True, adaptive=False),
    "adaptive_compr": dict(cache_compression=True, link_compression=True, prefetching=True, adaptive=True),
}


def _default_warmup() -> int:
    """``REPRO_WARMUP``, falling back to ``REPRO_EVENTS``."""
    return settings.get("REPRO_WARMUP", settings.get("REPRO_EVENTS"))


def make_config(
    key: str,
    *,
    n_cores: int = 8,
    scale: Optional[int] = None,
    bandwidth_gbs: Optional[float] = 20.0,
    infinite_bandwidth: bool = False,
) -> SystemConfig:
    """Build the Table 1 system with one of the paper's feature combos.

    ``infinite_bandwidth`` selects the paper's bandwidth-*demand*
    measurement configuration (Figures 4 and 7).
    """
    if key not in CONFIG_FEATURES:
        raise KeyError(f"unknown config {key!r}; choose from {', '.join(CONFIG_FEATURES)}")
    from dataclasses import replace

    cfg = SystemConfig(n_cores=n_cores)
    cfg = cfg.scaled(scale if scale is not None else settings.get("REPRO_SCALE"))
    bw = None if infinite_bandwidth else bandwidth_gbs
    cfg = replace(cfg, link=replace(cfg.link, bandwidth_gbs=bw))
    return cfg.with_features(**CONFIG_FEATURES[key])


# In-process memo: a bounded LRU (plain dict in recency order) so long
# sweep sessions cannot grow it without limit.  The disk cache below it
# has no bound; ``repro cache clear`` manages that one.
_CACHE: Dict[Tuple, SimulationResult] = {}


def _memo_get(key: Tuple) -> Optional[SimulationResult]:
    result = _CACHE.get(key)
    if result is not None:
        del _CACHE[key]  # refresh recency
        _CACHE[key] = result
    return result


def _memo_put(key: Tuple, result: SimulationResult) -> None:
    if key in _CACHE:
        del _CACHE[key]
    else:
        cap = settings.get("REPRO_MEMO_CAP")
        while len(_CACHE) >= cap > 0:
            del _CACHE[next(iter(_CACHE))]  # evict LRU
    _CACHE[key] = result


def point_cache_key(
    workload: str,
    key: str,
    *,
    seed: int = 0,
    events: Optional[int] = None,
    warmup: Optional[int] = None,
    n_cores: int = 8,
    scale: Optional[int] = None,
    bandwidth_gbs: Optional[float] = 20.0,
    infinite_bandwidth: bool = False,
) -> Tuple:
    """The in-process memo key for one run_point argument set."""
    return (
        workload,
        key,
        seed,
        events if events is not None else settings.get("REPRO_EVENTS"),
        warmup if warmup is not None else _default_warmup(),
        n_cores,
        scale if scale is not None else settings.get("REPRO_SCALE"),
        bandwidth_gbs,
        infinite_bandwidth,
    )


def remember_point(result: SimulationResult, **coords) -> None:
    """Seed the in-process memo with an externally computed result
    (e.g. one returned by a :class:`repro.core.runner.ParallelRunner`
    worker), so later serial lookups reuse it."""
    _memo_put(point_cache_key(**coords), result)


def run_point(
    workload: str,
    key: str,
    *,
    seed: int = 0,
    events: Optional[int] = None,
    warmup: Optional[int] = None,
    n_cores: int = 8,
    scale: Optional[int] = None,
    bandwidth_gbs: Optional[float] = 20.0,
    infinite_bandwidth: bool = False,
    use_cache: bool = True,
    resume_snapshot: Optional[bool] = None,
) -> SimulationResult:
    """Run one (workload, config) data point.

    Lookup order: in-process memo, then the persistent disk cache, then
    simulate (and populate both).  ``use_cache=False`` bypasses all
    caching in both directions.

    ``resume_snapshot`` forwards to :meth:`CMPSystem.run`: ``True``
    resumes from a matching mid-run snapshot if one exists, ``False``
    never does, ``None`` (default) follows ``REPRO_SNAPSHOT_INTERVAL`` /
    ``REPRO_RESUME_SNAPSHOT``.  A run truncated by a resource guard
    (``result.extra["truncated"]``) is returned but never cached — a
    partial result must not shadow the eventual complete one.
    """
    events = events if events is not None else settings.get("REPRO_EVENTS")
    warmup = warmup if warmup is not None else _default_warmup()
    t0 = time.perf_counter()
    cache_key = point_cache_key(
        workload, key, seed=seed, events=events, warmup=warmup, n_cores=n_cores,
        scale=scale, bandwidth_gbs=bandwidth_gbs, infinite_bandwidth=infinite_bandwidth,
    )
    if use_cache:
        result = _memo_get(cache_key)
        if result is not None:
            _emit_point(workload, key, seed, "memo", None, t0)
            return result
    config = make_config(
        key,
        n_cores=n_cores,
        scale=scale,
        bandwidth_gbs=bandwidth_gbs,
        infinite_bandwidth=infinite_bandwidth,
    )
    disk = use_cache and settings.get("REPRO_CACHE")
    disk_key = None
    if disk:
        disk_key = diskcache.point_key(config, workload, seed, events, warmup)
        store = diskcache.DiskCache()
        result = store.get(disk_key)
        if result is not None:
            _memo_put(cache_key, result)
            _emit_point(workload, key, seed, "disk", disk_key, t0)
            return result
    system = CMPSystem(config, workload, seed=seed)
    result = system.run(
        events, warmup_events=warmup, config_name=key,
        resume_snapshot=resume_snapshot,
    )
    truncated = bool(result.extra.get("truncated"))
    if use_cache and not truncated:
        _memo_put(cache_key, result)
        if disk:
            store.put(disk_key, result)
    source = "snapshot" if system.resumed_from_phase is not None else "sim"
    _emit_point(workload, key, seed, source, disk_key, t0)
    return result


#: Where the most recent run_point result came from (``memo`` / ``disk``
#: / ``sim`` / ``snapshot`` for a simulation resumed from a mid-run
#: snapshot) — per process; the parallel runner reads it right after
#: each point to feed the live progress renderer.
_LAST_SOURCE = "sim"


def last_point_source() -> str:
    """Source of the most recent :func:`run_point` in this process."""
    return _LAST_SOURCE


def _emit_point(
    workload: str, key: str, seed: int, source: str, disk_key: Optional[str], t0: float
) -> None:
    """Record where the point came from; telemetry is free when off."""
    global _LAST_SOURCE
    _LAST_SOURCE = source
    if _telemetry.enabled():
        _telemetry.emit(
            "point",
            workload=workload,
            config_key=key,
            seed=seed,
            source=source,
            point_key=disk_key,
            wall_s=time.perf_counter() - t0,
        )


def _run_parallel(
    points: List[Tuple[Tuple[str, str], Dict]],
    jobs: Optional[int],
    on_outcome=None,
) -> List[SimulationResult]:
    """Fan points out to worker processes; raise on any failed point.

    ``on_outcome(index, outcome)`` fires per final outcome (used by the
    checkpoint journal) *before* any failure aborts the batch, so
    completed points survive a partial run.
    """
    from repro.core.runner import ParallelRunner, PointError

    outcomes = ParallelRunner(jobs).run_points(points, on_outcome=on_outcome)
    for outcome in outcomes:
        if isinstance(outcome, PointError):
            raise RuntimeError(
                f"simulation of {outcome.workload}/{outcome.key} failed: "
                f"{outcome.error}\n{outcome.traceback}"
            )
    for ((workload, key), kwargs), result in zip(points, outcomes):
        remember_point(result, workload=workload, key=key, **kwargs)
    return outcomes


def run_seeds(
    workload: str,
    key: str,
    seeds: Optional[int] = None,
    jobs: Optional[int] = None,
    **kwargs,
) -> List[SimulationResult]:
    """One result per seed (the paper's variability methodology).

    ``jobs`` > 1 runs the seeds across worker processes.
    """
    n = seeds if seeds is not None else settings.get("REPRO_SEEDS")
    if jobs is not None and jobs > 1 and n > 1:
        points = [((workload, key), dict(kwargs, seed=s)) for s in range(n)]
        return _run_parallel(points, jobs)
    return [run_point(workload, key, seed=s, **kwargs) for s in range(n)]


def run_matrix(
    workloads: Iterable[str],
    keys: Iterable[str],
    jobs: Optional[int] = None,
    journal=None,
    **kwargs,
) -> Dict[Tuple[str, str], SimulationResult]:
    """Cartesian sweep used by most figures.

    ``jobs`` > 1 runs the grid across worker processes; the returned
    mapping is identical to a serial run.  ``journal`` (a
    :class:`repro.core.checkpoint.SweepJournal`) checkpoints each
    completed point and restores already-completed ones bit-identically
    instead of re-simulating them.
    """
    coords = [(w, k) for w in workloads for k in keys]
    if journal is None:
        if jobs is not None and jobs > 1 and len(coords) > 1:
            points = [((w, k), dict(kwargs)) for w, k in coords]
            results = _run_parallel(points, jobs)
            return dict(zip(coords, results))
        return {(w, k): run_point(w, k, **kwargs) for w, k in coords}

    from repro.core import checkpoint

    jkeys = {
        (w, k): checkpoint.point_journal_key(
            {"workload": w, "key": k}, dict(kwargs)
        )
        for w, k in coords
    }
    out: Dict[Tuple[str, str], SimulationResult] = {}
    remaining = []
    for w, k in coords:
        restored = journal.result_for(jkeys[(w, k)])
        if restored is not None:
            out[(w, k)] = restored
            remember_point(restored, workload=w, key=k, **kwargs)
        else:
            remaining.append((w, k))
    if remaining:
        if jobs is not None and jobs > 1 and len(remaining) > 1:
            points = [((w, k), dict(kwargs)) for w, k in remaining]

            def record(pos, outcome):
                from repro.core.runner import PointError

                w, k = remaining[pos]
                coord = {"workload": w, "key": k}
                if isinstance(outcome, PointError):
                    journal.record_error(jkeys[(w, k)], coord, outcome)
                else:
                    journal.record_result(jkeys[(w, k)], coord, outcome)

            results = _run_parallel(points, jobs, on_outcome=record)
            out.update(zip(remaining, results))
        else:
            for w, k in remaining:
                result = run_point(w, k, **kwargs)
                journal.record_result(
                    jkeys[(w, k)], {"workload": w, "key": k}, result
                )
                out[(w, k)] = result
    return {(w, k): out[(w, k)] for w, k in coords}


def clear_cache(disk: bool = False) -> None:
    """Drop the in-process memo; with ``disk=True`` also empty the
    persistent on-disk cache."""
    _CACHE.clear()
    if disk:
        diskcache.DiskCache().clear()
