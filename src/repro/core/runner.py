"""Parallel execution of independent simulation points.

Every grid point in a sweep is an independent simulation, so sweeps
parallelise trivially across processes.  :class:`ParallelRunner` fans a
list of :func:`repro.core.experiment.run_point` argument sets out to a
``ProcessPoolExecutor`` and merges the results *by input position*, so
the output order is deterministic regardless of which worker finishes
first.  A point that raises is captured as a :class:`PointError` (with
its coordinates and traceback) instead of killing the whole sweep.

The runner is hardened against the failure modes long sweeps actually
hit (all of them injectable via :mod:`repro.faults` for tests):

* **Lost workers** — a worker killed by the OS (OOM, signal) breaks the
  whole ``ProcessPoolExecutor``; the runner respawns the pool and
  resubmits the in-flight points to it at once, up to
  :data:`MAX_RETRIES` times each, instead of converting every pending
  point into a :class:`PointError`.  This is the only failure that is
  retried: a simulation exception is deterministic, so the same input
  would fail the same way.  A serial run has no worker to lose, so it
  never retries.
* **Hung points** — with ``REPRO_POINT_TIMEOUT=<seconds>`` set, a point
  running longer than the budget is recorded as a ``timeout``
  :class:`PointError`; the stuck worker is terminated, the pool is
  respawned, and unaffected in-flight points are resubmitted without
  consuming their retry budget.  (Timeouts need ``jobs > 1``: a hung
  point cannot be preempted in-process.)

Workers inherit the disk cache (:mod:`repro.core.diskcache`): each
worker process consults and populates it through ``run_point``, so a
parallel sweep warms the same persistent cache a serial one would.

The ``REPRO_JOBS`` and ``REPRO_POINT_TIMEOUT`` knobs are declared in
:mod:`repro.settings`.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults, settings
from repro.core import durable
from repro.core.results import SimulationResult
from repro.obs import telemetry as _telemetry

#: One work item: ((workload, key), run_point keyword arguments), where
#: the key is a named config or a ``SystemConfig``.
PointSpec = Tuple[Tuple[str, Any], Dict[str, Any]]


def point_name(key: Any, kwargs: Dict[str, Any]) -> str:
    """A point's display name: its ``name`` argument, else the named
    key, else the config's one-line description."""
    if kwargs.get("name"):
        return kwargs["name"]
    return key if isinstance(key, str) else key.describe()


@dataclass
class PointError:
    """A grid point that failed; the sweep carries on without it.

    ``kind`` classifies the failure: ``error`` (the simulation raised),
    ``lost-worker`` (the worker process died and retries ran out) or
    ``timeout`` (the point exceeded ``REPRO_POINT_TIMEOUT``).
    ``attempts`` counts how many times the point was tried.
    """

    workload: str
    key: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    traceback: str = ""
    kind: str = "error"
    attempts: int = 1

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointError({self.workload}/{self.key}: [{self.kind}] {self.error})"


PointOutcome = Union[SimulationResult, PointError]

_LOST_WORKER_NOTE = (
    "worker process terminated abruptly (killed by the OS, e.g. OOM or a "
    "signal) before returning a result; the point was not simulated"
)
_TIMEOUT_NOTE = (
    "point exceeded the per-point wall-clock budget (REPRO_POINT_TIMEOUT); "
    "the stuck worker was terminated and the pool respawned"
)

#: Internal worker-outcome tuple:
#: (index, result, error-or-None, source, quarantines)
#: where error = (repr, traceback, kind).
_Outcome = Tuple[int, Any, Optional[Tuple[str, str, str]], str, int]

#: How many times a point lost with its worker is resubmitted.
MAX_RETRIES = 2


def default_jobs() -> int:
    """``REPRO_JOBS`` if set, else the machine's CPU count."""
    return settings.get("REPRO_JOBS") or os.cpu_count() or 1


#: True in pool worker processes (set by the pool initializer); the
#: process-killing fault sites only fire there, never in the parent.
_IN_WORKER = False


def _worker_init() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    # Workers are forked after the parent may have installed its
    # sweep resume-guard signal handlers; left inherited, the
    # SIGTERM a pool respawn sends to a stuck worker would make the
    # *worker* print the parent's resume hint.  Restore sane defaults:
    # ignore SIGINT (the parent owns Ctrl-C) and die plainly on SIGTERM.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _run_one(item: Tuple[int, PointSpec, int]) -> _Outcome:
    """Worker body: run one point, never raise.

    The ``source`` element reports where the result came from (``sim`` /
    ``disk`` / ``error``) for the live progress renderer;
    ``quarantines`` counts durable files quarantined while the
    point ran so the parent can surface them.
    """
    index, ((workload, key), kwargs), attempt = item
    try:
        from repro.core.experiment import last_point_source, run_point

        quarantined_before = durable.quarantine_count()
        if _IN_WORKER and faults.active():
            hit = faults.should("kill", index=index, attempt=attempt)
            if hit is not None:
                os._exit(int(hit.arg) if hit.arg is not None else 1)
            hit = faults.should("hang", index=index, attempt=attempt)
            if hit is not None:
                time.sleep(hit.arg if hit.arg is not None else 3600.0)
        result = run_point(workload, key, **kwargs)
        quarantines = durable.quarantine_count() - quarantined_before
        return index, result, None, last_point_source(), quarantines
    except Exception as exc:  # noqa: BLE001 - captured per point by design
        return index, None, (repr(exc), traceback.format_exc(), "error"), "error", 0


def _stop_pool(pool) -> None:
    """Shut ``pool`` down and terminate and join its worker processes,
    including any still running a point."""
    # shutdown() drops the pool's references to its worker processes
    # and manager thread, so take them first.  A worker left running (a
    # hung point) would keep the manager thread, and so interpreter
    # exit, waiting until it returns.
    procs = list((getattr(pool, "_processes", None) or {}).values())
    thread = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 - a broken pool may refuse politely
        pass
    for proc in procs:
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001 - already dead is fine
            pass
    for proc in procs:
        proc.join(timeout=1.0)
    # Let the dead pool's manager thread finish closing its wakeup pipe;
    # otherwise interpreter exit races it and logs a spurious "Exception
    # ignored ... Bad file descriptor".
    if thread is not None:
        thread.join(timeout=1.0)


_WARNED_PROGRESS = False


def _notify(
    progress: Optional[Callable[[int, int], None]],
    done: int,
    total: int,
    source: str,
) -> None:
    """Drive a progress callback, upgrading to the richer ``point_done``
    hook (:class:`repro.obs.progress.SweepProgress`) when present.

    The renderer is observability, not control flow: an exception from a
    user callback is downgraded to a one-time warning instead of
    aborting the sweep mid-drain.  (``KeyboardInterrupt`` still
    propagates — interrupting a sweep from a hook is deliberate.)
    """
    global _WARNED_PROGRESS
    if progress is None:
        return
    try:
        hook = getattr(progress, "point_done", None)
        if hook is not None:
            hook(done, total, source=source)
        else:
            progress(done, total)
    except Exception as exc:  # noqa: BLE001 - observability must not abort
        if not _WARNED_PROGRESS:
            _WARNED_PROGRESS = True
            warnings.warn(
                f"progress callback raised {exc!r}; the sweep continues and "
                "further progress errors are suppressed",
                RuntimeWarning,
                stacklevel=2,
            )


def _event(progress: Optional[Callable], kind: str) -> None:
    """Feed a resilience event (retry / restart / timeout / quarantine)
    to a renderer that understands the optional ``event`` hook."""
    if progress is None:
        return
    hook = getattr(progress, "event", None)
    if hook is None:
        return
    try:
        hook(kind)
    except Exception:  # noqa: BLE001 - same contract as _notify
        pass


class OffsetProgress:
    """Re-bases one batch's progress onto a larger run (a matrix's
    earlier workloads)."""

    def __init__(self, inner, offset: int, total: int) -> None:
        self.inner = inner
        self.offset = offset
        self.total = total

    def point_done(self, done: int, _total: int, source=None) -> None:
        _notify(self.inner, done + self.offset, self.total, source)

    def event(self, kind: str) -> None:
        _event(self.inner, kind)


class ParallelRunner:
    """Run independent simulation points across worker processes."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = max(int(jobs) if jobs is not None else default_jobs(), 1)

    def run_points(
        self,
        points: Sequence[PointSpec],
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> List[PointOutcome]:
        """Execute every point; result ``i`` corresponds to ``points[i]``.

        ``progress(done, total)`` fires as each point completes (in
        completion order; the returned list is in input order).
        """
        total = len(points)
        t0 = time.perf_counter()
        results: List[Optional[PointOutcome]] = [None] * total
        stats = {"retries": 0, "restarts": 0, "timeouts": 0, "quarantines": 0}
        if self.jobs == 1 or total <= 1:
            for index, spec in enumerate(points):
                self._finalize(
                    results, points, _run_one((index, spec, 0)), 1, index + 1,
                    total, progress, stats,
                )
        else:
            self._run_parallel(points, results, progress, stats)
        self._emit_sweep(results, workers=min(self.jobs, total), t0=t0, stats=stats)
        return results  # type: ignore[return-value]

    # -- parallel path ------------------------------------------------------

    def _run_parallel(
        self,
        points: Sequence[PointSpec],
        results: List[Optional[PointOutcome]],
        progress: Optional[Callable],
        stats: Dict[str, int],
    ) -> None:
        """Windowed scheduler: at most ``workers`` points are in flight,
        so each in-flight future's submission time approximates its run
        start — which is what makes per-point timeouts enforceable on a
        plain ``ProcessPoolExecutor``."""
        # Imported here: a serial run never loads multiprocessing.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        total = len(points)
        workers = min(self.jobs, total)
        timeout = settings.get("REPRO_POINT_TIMEOUT")
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)
        queue: deque = deque((i, 0) for i in range(total))
        inflight: Dict[Any, Tuple[int, int, float]] = {}  # fut -> (idx, att, started)
        done = 0

        def respawn(old: ProcessPoolExecutor) -> ProcessPoolExecutor:
            stats["restarts"] += 1
            _event(progress, "restart")
            if _telemetry.enabled():
                _telemetry.emit("pool-restart", workers=workers)
            _stop_pool(old)
            return ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)

        try:
            while done < total:
                while queue and len(inflight) < workers:
                    idx, att = queue.popleft()
                    try:
                        fut = pool.submit(_run_one, (idx, points[idx], att))
                    except (BrokenProcessPool, RuntimeError):
                        # The pool died between drain and submit (e.g. a
                        # worker was killed mid-submission): respawn once
                        # and resubmit on the fresh pool.
                        pool = respawn(pool)
                        fut = pool.submit(_run_one, (idx, points[idx], att))
                    inflight[fut] = (idx, att, time.perf_counter())
                if not inflight:
                    break  # defensive: done should already equal total
                wait_s: Optional[float] = None
                if timeout is not None:
                    oldest = min(start for (_i, _a, start) in inflight.values())
                    wait_s = max(oldest + timeout - time.perf_counter(), 0.0)
                finished, _pending = wait(
                    set(inflight), timeout=wait_s, return_when=FIRST_COMPLETED
                )
                pool_broken = False
                for fut in finished:
                    idx, att, _started = inflight.pop(fut)
                    try:
                        outcome: _Outcome = fut.result()
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        if att < MAX_RETRIES:
                            # Resubmitted to the respawned pool below.
                            stats["retries"] += 1
                            _event(progress, "retry")
                            if _telemetry.enabled():
                                _telemetry.emit(
                                    "retry", index=idx, attempt=att + 1,
                                    fault="lost-worker",
                                )
                            queue.append((idx, att + 1))
                            continue
                        outcome = (
                            idx, None, (repr(exc), _LOST_WORKER_NOTE, "lost-worker"),
                            "error", 0,
                        )
                    except Exception as exc:  # noqa: BLE001 - per-point capture
                        outcome = (
                            idx, None, (repr(exc), traceback.format_exc(), "error"),
                            "error", 0,
                        )
                    done += 1
                    self._finalize(
                        results, points, outcome, att + 1, done, total,
                        progress, stats,
                    )
                if pool_broken:
                    # Remaining in-flight futures on the broken pool have
                    # already been failed with BrokenProcessPool by the
                    # executor; they surface through the loop above on the
                    # next drain.  The pool itself must be replaced before
                    # anything else is submitted.
                    pool = respawn(pool)
                    continue
                if timeout is not None and inflight:
                    now = time.perf_counter()
                    expired = [
                        fut for fut, (_i, _a, started) in inflight.items()
                        if now - started >= timeout
                    ]
                    if expired:
                        for fut in expired:
                            idx, att, _started = inflight.pop(fut)
                            stats["timeouts"] += 1
                            _event(progress, "timeout")
                            if _telemetry.enabled():
                                _telemetry.emit(
                                    "point-timeout", index=idx,
                                    attempt=att, timeout_s=timeout,
                                )
                            done += 1
                            self._finalize(
                                results, points,
                                (
                                    idx, None,
                                    (
                                        f"TimeoutError('point exceeded "
                                        f"{timeout}s wall-clock budget')",
                                        _TIMEOUT_NOTE, "timeout",
                                    ),
                                    "error", 0,
                                ),
                                att + 1, done, total, progress, stats,
                            )
                        # The stuck worker cannot be preempted individually:
                        # burn the pool, terminate its processes, and give
                        # the unaffected in-flight points a free
                        # resubmission (no retry budget consumed).
                        for fut, (idx, att, _started) in inflight.items():
                            queue.append((idx, att))
                        inflight.clear()
                        pool = respawn(pool)
        finally:
            # Also on Ctrl-C or a raising progress hook: workers ignore
            # SIGINT, and one left running would finish its in-flight
            # point after the sweep has returned.
            _stop_pool(pool)

    # -- shared bookkeeping -------------------------------------------------

    def _finalize(
        self,
        results: List[Optional[PointOutcome]],
        points: Sequence[PointSpec],
        outcome: _Outcome,
        attempts: int,
        done: int,
        total: int,
        progress: Optional[Callable],
        stats: Dict[str, int],
    ) -> None:
        quarantines = outcome[4]
        if quarantines:
            stats["quarantines"] += quarantines
            for _ in range(quarantines):
                _event(progress, "quarantine")
        self._store(results, points, outcome, attempts=attempts)
        _notify(progress, done, total, outcome[3])

    @staticmethod
    def _emit_sweep(
        results: Sequence[Optional[PointOutcome]],
        workers: int,
        t0: float,
        stats: Optional[Dict[str, int]] = None,
    ) -> None:
        if _telemetry.enabled():
            errors = sum(1 for r in results if isinstance(r, PointError))
            _telemetry.emit(
                "sweep",
                points=len(results),
                errors=errors,
                workers=workers,
                wall_s=time.perf_counter() - t0,
                settings=settings.from_env(),
                **(stats or {}),
            )

    @staticmethod
    def _store(
        results: List[Optional[PointOutcome]],
        points: Sequence[PointSpec],
        outcome: Tuple,
        attempts: int = 1,
    ) -> None:
        index, result, error = outcome[:3]
        if error is None:
            results[index] = result
        else:
            (workload, key), kwargs = points[index]
            results[index] = PointError(
                workload=workload,
                key=point_name(key, kwargs),
                kwargs=dict(kwargs),
                error=error[0],
                traceback=error[1],
                kind=error[2],
                attempts=attempts,
            )
