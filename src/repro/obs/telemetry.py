"""Run telemetry: structured JSONL records of *how* simulations ran.

Simulation results answer "what did the model predict"; telemetry
answers "what did the run cost" — wall-clock per phase, events/second,
disk-cache hits and misses, which worker produced which point.  That is
the data needed to see what a pure-Python run costs and to debug
parallel sweeps after the fact.

Enable by pointing ``REPRO_TELEMETRY`` at a file path; every record is
appended as one JSON line (``O_APPEND`` keeps concurrent workers from
interleaving partial lines for the short records emitted here).  When
the variable is unset, :func:`emit` is a no-op costing one environment
lookup.
I/O errors are swallowed: telemetry must never be able to fail a run.

Record shape (all records)::

    {"kind": "...", "ts": <unix seconds>, "pid": <os.getpid()>, ...}

Kinds emitted by the simulator stack:

* ``simulate`` — one per :meth:`CMPSystem.run`: workload, config
  description, per-phase wall seconds, events/sec, audit check count,
  ``settings`` (each environment-set ``REPRO_*`` knob, parsed);
* ``point`` — one per :func:`repro.core.experiment.run_point`: workload,
  config name, where the result came from (``disk`` / ``sim``), the
  point's cache key (null for a point that is
  never cached), wall seconds;
* ``diskcache`` — one per disk-cache probe/store: hit / miss / store,
  plus the resilience outcomes ``corrupt`` (entry quarantined) and
  ``store-failed`` (serialization or I/O failure on write);
* ``sweep`` — one per :meth:`ParallelRunner.run_points` call: point
  count, error count, worker count, wall seconds, plus retry / pool
  restart / timeout / quarantine counts and ``settings``;
* ``retry`` — one per point resubmitted after its worker was lost
  (index, attempt, ``fault`` = ``lost-worker``);
* ``pool-restart`` — one per worker-pool respawn after a lost worker or
  a timed-out point;
* ``point-timeout`` — one per point killed by ``REPRO_POINT_TIMEOUT``
  (always terminal: the point fails);
* ``matrix-point`` — one per distinct interaction-matrix run
  (:func:`repro.report.matrix.run_matrix`), whether it was simulated or
  served by the disk cache (its ``point`` record tells which):
  workload, prefetcher, scheme, runtime, done/total progress;
* ``matrix`` — one per matrix sweep: axis lists, cell and simulation
  counts, whether attribution annotation was on, wall seconds.

Read the stream back with ``repro telemetry <file>`` (see
:mod:`repro.cli`), which aggregates per-kind counts and rates.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from typing import Any, Dict, Iterable, List

from repro import settings


def enabled() -> bool:
    """Is telemetry directed anywhere?"""
    return settings.get("REPRO_TELEMETRY") is not None


# Cached append handles, keyed by sink path.  Reopening the file for
# every record costs ~3 syscalls (open/close dominate) per emit; a
# cached handle opened in "a" mode keeps the O_APPEND concurrency
# guarantee (each record is one short write, appended atomically even
# with concurrent workers) and the explicit flush per record keeps the
# crash-safety guarantee (a killed process loses at most the record
# being written).  Each entry remembers the pid that opened it so a
# forked worker never writes through — or closes — its parent's handle.
_SINKS: Dict[str, tuple] = {}
_SINK_CAP = 8  # distinct sink paths worth caching (tests rotate paths)


def _sink(path: str):
    pid = os.getpid()
    cached = _SINKS.get(path)
    if cached is not None and cached[0] == pid:
        return cached[1]
    # Note: an inherited parent handle is deliberately *not* closed here
    # (closing would close the parent's fd state mid-write on some
    # platforms); dropping the reference is enough.
    if len(_SINKS) >= _SINK_CAP:
        for stale_path, (stale_pid, handle) in list(_SINKS.items()):
            if stale_path != path:
                if stale_pid == pid:
                    try:
                        handle.close()
                    except OSError:
                        pass
                del _SINKS[stale_path]
    handle = open(path, "a", encoding="utf-8")
    _SINKS[path] = (pid, handle)
    return handle


def close_sinks() -> None:
    """Close every cached sink handle (tests and atexit hygiene)."""
    pid = os.getpid()
    for _path, (owner, handle) in list(_SINKS.items()):
        if owner == pid:
            try:
                handle.close()
            except OSError:
                pass
    _SINKS.clear()


atexit.register(close_sinks)


def emit(kind: str, **fields: Any) -> None:
    """Append one record to the telemetry sink; silently do nothing when
    disabled or when the sink cannot be written (telemetry must never
    fail a run)."""
    path = settings.get("REPRO_TELEMETRY")
    if path is None:
        return
    record: Dict[str, Any] = {"kind": kind, "ts": time.time(), "pid": os.getpid()}
    record.update(fields)
    line = json.dumps(record, sort_keys=True) + "\n"
    try:
        sink = _sink(path)
        sink.write(line)
        sink.flush()
    except (OSError, ValueError):
        # ValueError: write on a handle something else closed.  Drop the
        # cached handle and retry once from a fresh open; give up quietly
        # if the sink is truly unwritable.
        _SINKS.pop(path, None)
        try:
            sink = _sink(path)
            sink.write(line)
            sink.flush()
        except (OSError, ValueError):
            _SINKS.pop(path, None)


def read_records(path: str) -> List[Dict[str, Any]]:
    """Parse a telemetry file, skipping lines that do not parse (a record
    truncated by a killed worker must not hide the rest)."""
    from repro.core.durable import read_jsonl  # repro.core imports this module

    return read_jsonl(path)


def summarize(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a record stream for the ``repro telemetry`` CLI."""
    by_kind: Dict[str, int] = {}
    sim_wall = 0.0
    sim_events = 0
    audit_checks = 0
    sources: Dict[str, int] = {}
    cache: Dict[str, int] = {}
    workers = set()
    sweep_points = 0
    sweep_errors = 0
    sweep_wall = 0.0
    sweep_workers = 0
    sweep_retries = 0
    sweep_restarts = 0
    sweep_timeouts = 0
    sweep_quarantines = 0
    for record in records:
        kind = str(record.get("kind"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if "pid" in record:
            workers.add(record["pid"])
        if kind == "simulate":
            sim_wall += float(record.get("wall_s", 0.0))
            sim_events += int(record.get("events", 0))
            audit_checks += int(record.get("audit_checks", 0))
        elif kind == "point":
            source = str(record.get("source", "?"))
            sources[source] = sources.get(source, 0) + 1
        elif kind == "diskcache":
            outcome = str(record.get("outcome", "?"))
            cache[outcome] = cache.get(outcome, 0) + 1
        elif kind == "sweep":
            sweep_points += int(record.get("points", 0))
            sweep_errors += int(record.get("errors", 0))
            sweep_wall += float(record.get("wall_s", 0.0))
            sweep_workers = max(sweep_workers, int(record.get("workers", 0)))
            sweep_retries += int(record.get("retries", 0))
            sweep_restarts += int(record.get("restarts", 0))
            sweep_timeouts += int(record.get("timeouts", 0))
            sweep_quarantines += int(record.get("quarantines", 0))
    return {
        "records": sum(by_kind.values()),
        "by_kind": by_kind,
        "workers": len(workers),
        "simulate_wall_s": sim_wall,
        "simulate_events": sim_events,
        "events_per_sec": (sim_events / sim_wall) if sim_wall > 0 else 0.0,
        "audit_checks": audit_checks,
        "point_sources": sources,
        "diskcache": cache,
        "sweep_points": sweep_points,
        "sweep_errors": sweep_errors,
        "sweep_wall_s": sweep_wall,
        "sweep_max_workers": sweep_workers,
        "sweep_retries": sweep_retries,
        "sweep_restarts": sweep_restarts,
        "sweep_timeouts": sweep_timeouts,
        "sweep_quarantines": sweep_quarantines,
    }
