"""Mid-run simulator snapshots: crash-safe long simulations.

The *simulator itself* is checkpointed at phase boundaries: the complete
machine state — cache arrays, MSHR/write-back buffers, prefetcher and
adaptive-controller state, coherence directory, DRAM/NoC timing state,
workload cursor state, and all stats — goes into one snapshot file per
phase, and a killed run resumes from the last phase boundary
bit-identically (kill-and-resume equals run-to-completion on
``result_fingerprint``).

A snapshot is a sealed file of :mod:`repro.core.durable` (magic
``RPSN``, format version 5): the meta block holds the run identity and
progress counters, the payload the pickled state dict, which is
unpickled only after its checksum verifies.  A bad snapshot is
quarantined and restore falls back to the previous phase snapshot (or
a clean start).

On a ``REPRO_DEADLINE`` / ``REPRO_MEM_LIMIT`` breach (checked at phase
boundaries) the run does *not* die: it keeps its latest snapshot,
returns a structured partial result carrying a ``truncated`` extra, and
prints the exact resume command.  Snapshots of a run that completes are
deleted, so auto-resume (on whenever the interval is set) only ever
picks up genuinely interrupted runs.  The knobs are declared in
:mod:`repro.settings`; the ``snapkill``, ``snapcorrupt`` and
``diskfull`` fault sites are listed in :mod:`repro.faults.inject`.
"""

from __future__ import annotations

import errno
import os
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import settings
from repro.core import durable
from repro.core.durable import QUARANTINE_DIR, CorruptFile as SnapshotError
from repro.faults import inject as _faults
from repro.obs import telemetry as _telemetry

SNAPSHOT_MAGIC = b"RPSN"
#: Version 2: workload cursors moved to ``repro.workloads.base`` and
#: carry one chunk of event tuples; version-1 payloads cannot unpickle.
#: Version 3: cores lost their ``tracer`` slot; version-2 payloads
#: cannot unpickle.
#: Version 4: L2 sets build their tags on first claim and count the
#: never-claimed ways in ``fresh``, and trace generators keep cumulative
#: stride weights; version-3 payloads lack both.
#: Version 5: the hierarchy and its components hold one ``observer``
#: reference in place of per-observer attributes and hooks; version-4
#: payloads lack it.
SNAPSHOT_VERSION = 5

ENV_INTERVAL = "REPRO_SNAPSHOT_INTERVAL"
ENV_DIR = "REPRO_SNAPSHOT_DIR"
ENV_RESUME = "REPRO_RESUME_SNAPSHOT"
ENV_DEADLINE = "REPRO_DEADLINE"
ENV_MEM_LIMIT = "REPRO_MEM_LIMIT"

#: Snapshots kept per run: the newest phase plus one fallback, so a
#: snapshot corrupted on disk still leaves a resume point.
KEEP_PHASES = 2


# -- resource guards ----------------------------------------------------------


def _rss_mib() -> Optional[float]:
    """Current resident set size in MiB, or None where unreadable."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        # ru_maxrss is KiB on Linux; a peak value, which only over-
        # estimates — acceptable for a fallback guard.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:
        return None


class ResourceGuard:
    """Cooperative watchdog: wall-clock and RSS budgets for one run.

    Checked at phase boundaries only — the guard never interrupts a
    phase, it turns "the scheduler would have killed us" into "snapshot,
    return a truncated result, print the resume command".
    """

    def __init__(self) -> None:
        self.deadline_s = settings.get(ENV_DEADLINE)
        self.mem_limit_mib = settings.get(ENV_MEM_LIMIT)
        self._t0 = time.monotonic()

    def active(self) -> bool:
        return self.deadline_s is not None or self.mem_limit_mib is not None

    def breach(self) -> Optional[str]:
        """A human-readable reason when a budget is exceeded, else None."""
        if self.deadline_s is not None:
            elapsed = time.monotonic() - self._t0
            if elapsed >= self.deadline_s:
                return (
                    f"deadline exceeded ({elapsed:.1f}s elapsed >= "
                    f"{ENV_DEADLINE}={self.deadline_s:g}s)"
                )
        if self.mem_limit_mib is not None:
            rss = _rss_mib()
            if rss is not None and rss >= self.mem_limit_mib:
                return (
                    f"memory limit exceeded ({rss:.0f} MiB RSS >= "
                    f"{ENV_MEM_LIMIT}={self.mem_limit_mib:g} MiB)"
                )
        return None


# -- state capture ------------------------------------------------------------


def capture_state(system) -> Dict[str, Any]:
    """The complete simulator state of one CMPSystem.

    Pickling the object model plus the workload cursors (whose
    generators keep their walk state on the instance) captures
    everything.
    """
    if "access" in system.hierarchy.__dict__:
        # Wrapped hierarchy methods (the differential-verification tap)
        # are closures; the snapshot would not round-trip them.
        raise ValueError("hierarchy methods are wrapped; cannot snapshot")
    state: Dict[str, Any] = {
        "hierarchy": system.hierarchy,
        "cores": system.cores,
        "values": system.values,
        "events_processed": system._events_processed,
    }
    if system._trace is not None:
        # Trace-driven runs: the pack is rebuilt by the resuming caller,
        # so only the per-core cursor positions are stored.
        state["trace_positions"] = [
            it.pos % len(it.events) for it in system._generators
        ]
    else:
        state["cursors"] = system._generators
    return state


# -- file format --------------------------------------------------------------


def write_snapshot(path: str, meta: Dict[str, Any], payload: bytes) -> None:
    """Atomically write one snapshot file; the ``diskfull`` fault site
    fails it with ``ENOSPC``, the ``snapcorrupt`` site flips a payload
    byte after hashing."""
    if _faults.should("diskfull", token=path) is not None:
        raise OSError(errno.ENOSPC, "injected disk-full fault", path)
    durable.write_sealed(
        path, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, meta, payload, fault="snapcorrupt"
    )


def read_snapshot(path: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Read and fully validate one snapshot file.  Every way it can be
    wrong (missing, torn, any sealed-file defect, a payload that does not
    unpickle, missing meta fields) raises :class:`SnapshotError`."""
    try:
        meta, payload = durable.read_sealed(
            path, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, "snapshot"
        )
    except OSError as exc:
        raise SnapshotError(path, f"unreadable: {exc}") from None
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # unpickling can raise nearly anything
        raise SnapshotError(path, f"payload does not unpickle: {exc}") from None
    if not isinstance(state, dict):
        raise SnapshotError(path, "payload is not a state dict")
    for field in ("run_key", "phase", "warmup_done", "measure_done", "interval"):
        if field not in meta:
            raise SnapshotError(path, f"meta is missing {field!r}")
    return meta, state


# -- the manager --------------------------------------------------------------


def run_key(config, workload: str, seed: int, events: int, warmup: int) -> str:
    """Stable identity of one long run — everything that changes the
    result, nothing that only changes execution.  Reuses the disk
    cache's key derivation, which strips the observability knobs, at
    the cache format that was current when RPSN v2 shipped, so a cache
    format bump never orphans the snapshots already on disk."""
    from repro.core import diskcache

    return diskcache.point_key(config, workload, seed, events, warmup, fmt=2)


class SnapshotManager:
    """Writes, rotates, validates, quarantines and restores the snapshot
    chain of one run (identified by :func:`run_key`)."""

    def __init__(self, key: str, directory: Optional[str] = None) -> None:
        self.key = key
        self.root = directory or settings.get(ENV_DIR)
        durable.sweep_stale_tmp(self.root)

    # -- paths --------------------------------------------------------------

    def path_for(self, phase: int) -> str:
        return os.path.join(self.root, f"{self.key[:20]}-p{phase:05d}.rpsn")

    def _candidates(self) -> List[Tuple[int, str]]:
        """(phase, path) pairs of this run's snapshots, newest first."""
        prefix = f"{self.key[:20]}-p"
        found: List[Tuple[int, str]] = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        for name in names:
            if not (name.startswith(prefix) and name.endswith(".rpsn")):
                continue
            try:
                phase = int(name[len(prefix):-len(".rpsn")])
            except ValueError:
                continue
            found.append((phase, os.path.join(self.root, name)))
        found.sort(reverse=True)
        return found

    # -- store --------------------------------------------------------------

    def save(self, system, meta: Dict[str, Any]) -> Optional[str]:
        """Capture and store one phase snapshot; never raises.

        A snapshot that cannot be taken (unpicklable state) or stored
        (disk full) is reported via telemetry as ``store-failed`` and the
        run simply continues without it — durability must never be able
        to fail the simulation it protects.
        """
        t0 = time.perf_counter()
        phase = int(meta["phase"])
        path = self.path_for(phase)
        try:
            state = capture_state(system)
            payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            full_meta = {
                "version": SNAPSHOT_VERSION,
                "run_key": self.key,
                **meta,
            }
            write_snapshot(path, full_meta, payload)
        except (ValueError, OSError, pickle.PicklingError, TypeError,
                AttributeError) as exc:
            _telemetry.emit(
                "snapshot", action="store-failed", path=path, phase=phase,
                reason=str(exc),
            )
            return None
        self._prune(keep_from=phase - KEEP_PHASES + 1)
        _telemetry.emit(
            "snapshot", action="store", path=path, phase=phase,
            bytes=len(payload), wall_s=time.perf_counter() - t0,
        )
        hit = _faults.should("snapkill", index=phase)
        if hit is not None:
            # Chaos site: die the instant the snapshot is durable — the
            # harshest possible kill point for the resume contract.
            os._exit(int(hit.arg) if hit.arg is not None else 137)
        return path

    def _prune(self, keep_from: int) -> int:
        """Delete this run's snapshots older than phase ``keep_from``."""
        removed = 0
        for phase, path in self._candidates():
            if phase < keep_from:
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- restore ------------------------------------------------------------

    def load_latest(self) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """The newest valid snapshot of this run, or None.

        A corrupt or truncated candidate is quarantined (with a
        telemetry record) and the previous phase is tried — restore
        degrades phase by phase down to a clean start, never to a raw
        exception.
        """
        for _phase, path in self._candidates():
            try:
                meta, state = read_snapshot(path)
                if meta.get("run_key") != self.key:
                    raise SnapshotError(path, "run key mismatch")
            except SnapshotError as exc:
                durable.quarantine(
                    path, self.root, exc.reason, "snapshot", action="corrupt", path=path
                )
                continue
            _telemetry.emit(
                "snapshot", action="restore", path=path,
                phase=int(meta["phase"]),
                warmup_done=int(meta["warmup_done"]),
                measure_done=int(meta["measure_done"]),
            )
            return meta, state
        return None


    # -- completion ---------------------------------------------------------

    def discard(self) -> int:
        """Delete this run's snapshots (called when the run completes, so
        auto-resume only ever sees genuinely interrupted runs)."""
        removed = self._prune(keep_from=float("inf"))
        if removed:
            _telemetry.emit("snapshot", action="discard", count=removed)
        return removed
