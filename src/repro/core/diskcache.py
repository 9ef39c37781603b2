"""Persistent on-disk result cache.

Simulation points are pure functions of (system configuration, workload,
seed, event counts), so their results can be stored content-addressed
and reused across processes — a warm sweep in a fresh interpreter does
no simulation at all.  It is the only result store, so it is also the
sweep checkpoint: every point is stored as it completes, and
``repro sweep --resume`` (which keeps the cache on even under
``REPRO_CACHE=0``) restores a killed sweep's finished points from it.  Keys are a SHA-256 over the canonical JSON of the
full :class:`~repro.params.SystemConfig` plus the run parameters and a
format version, so *any* config change (including future fields) yields
a different key rather than a stale hit.

Layout: ``<root>/<key[:2]>/<key>.rpce``, one sealed file of
:mod:`repro.core.durable` (magic ``RPCE``) per result, holding the JSON
of :func:`repro.report.export.result_to_full_dict`.  Concurrent writers
(parallel sweep workers) at worst compute the same point twice.

The cache is *self-healing*: a corrupt entry is quarantined and
reported as a distinct ``corrupt`` telemetry outcome — never a silent
``miss`` — then recomputed; ``repro cache verify`` audits every entry.

``REPRO_CACHE`` and ``REPRO_CACHE_DIR`` are declared in
:mod:`repro.settings`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Dict, Optional

from repro import settings
from repro.core import durable
from repro.core.durable import QUARANTINE_DIR, CorruptFile
from repro.core.results import SimulationResult
from repro.digest import stable_hash
from repro.obs import telemetry as _telemetry
from repro.params import SystemConfig
from repro.report.export import (
    RESULT_SCHEMA_VERSION,
    result_from_dict,
    result_to_full_dict,
)

#: Bump to invalidate every existing cache entry: the version is hashed
#: into every key, so older entries are never looked up (they miss
#: rather than quarantine).  v3: entries are sealed files.
CACHE_FORMAT_VERSION = 3

ENTRY_MAGIC = b"RPCE"
ENTRY_SUFFIX = ".rpce"


def point_key(
    config: SystemConfig,
    workload: str,
    seed: int,
    events: int,
    warmup: int,
) -> str:
    """Stable content hash identifying one simulation point: the name of
    its cache entry, and the ``point_key`` of its telemetry records.

    Observability knobs (auditing, tracing, metrics, attribution) are
    stripped from the hashed config: they never change simulation
    results — the audit and obs test suites prove bit-identical
    fingerprints.  ``run_point`` never caches a point with an observer
    on, so no entry ever carries an observer's output.
    """
    cfg = asdict(config)
    for observability_field in (
        "audit", "audit_interval", "trace", "metrics", "metrics_interval",
        "attribution",
    ):
        cfg.pop(observability_field, None)
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "schema": RESULT_SCHEMA_VERSION,
        "workload": workload,
        "seed": seed,
        "events": events,
        "warmup": warmup,
        "config": cfg,
    }
    return stable_hash(payload, default=repr)


def read_entry(path: str) -> SimulationResult:
    """Load and fully validate one entry; any defect raises
    :class:`~repro.core.durable.CorruptFile` (and a missing or
    unreadable file :class:`OSError`)."""
    _meta, payload = durable.read_sealed(
        path, ENTRY_MAGIC, CACHE_FORMAT_VERSION, "cache entry"
    )
    try:
        return result_from_dict(json.loads(payload.decode("utf-8")))
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptFile(path, f"invalid result: {exc}") from None


class DiskCache:
    """Content-addressed store of simulation results under one root."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else settings.get("REPRO_CACHE_DIR")
        durable.sweep_stale_tmp(self.root)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ENTRY_SUFFIX)

    def quarantine_dir(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR)

    # -- read/write ---------------------------------------------------------

    def get(self, key: str) -> Optional[SimulationResult]:
        """Load a cached result, or None on miss *or* corrupt entry.

        A missing or unreadable file is a ``miss`` (it may be fine for
        the next reader).  An entry that fails validation is
        ``corrupt``: it is quarantined so the same rot is never re-read,
        and the point degrades to a recompute, never an error.
        """
        path = self.path_for(key)
        try:
            result = read_entry(path)
        except OSError:
            _telemetry.emit("diskcache", outcome="miss", key=key)
            return None
        except CorruptFile as exc:
            durable.quarantine(
                path, self.root, exc.reason, "diskcache", outcome="corrupt", key=key
            )
            return None
        _telemetry.emit("diskcache", outcome="hit", key=key)
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store a result atomically; failures are swallowed (the cache
        is an accelerator, not a correctness dependency) but recorded as
        a telemetry-visible ``store-failed`` outcome."""
        path = self.path_for(key)
        try:
            payload = result_to_full_dict(result)
            blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            durable.write_sealed(
                path, ENTRY_MAGIC, CACHE_FORMAT_VERSION, {"key": key}, blob
            )
            _telemetry.emit("diskcache", outcome="store", key=key)
        except (OSError, TypeError, ValueError) as exc:
            _telemetry.emit(
                "diskcache", outcome="store-failed", key=key,
                error=f"{type(exc).__name__}: {exc}",
            )

    def verify(self) -> Dict[str, int]:
        """Audit every entry's integrity (the ``repro cache verify``
        maintenance command): corrupt entries are quarantined, stale tmp
        files from any age are swept, and the counts are returned."""
        checked = 0
        corrupt = 0
        qdir = self.quarantine_dir()
        for dirpath, dirnames, filenames in os.walk(self.root):
            if os.path.abspath(dirpath) == os.path.abspath(qdir):
                dirnames[:] = []
                continue
            for name in filenames:
                if not name.endswith(ENTRY_SUFFIX):
                    continue
                checked += 1
                path = os.path.join(dirpath, name)
                try:
                    read_entry(path)
                except (OSError, CorruptFile) as exc:
                    corrupt += 1
                    durable.quarantine(
                        path, self.root, getattr(exc, "reason", str(exc)),
                        "diskcache", outcome="corrupt", key=name[: -len(ENTRY_SUFFIX)],
                    )
        swept = durable.sweep_stale_tmp(self.root, 0.0, once=False)
        return {
            "checked": checked,
            "ok": checked - corrupt,
            "corrupt": corrupt,
            "tmp_swept": swept,
        }

    # -- maintenance (the ``repro cache`` CLI) ------------------------------

    def stats(self) -> Dict[str, object]:
        entries = 0
        total_bytes = 0
        quarantined = 0
        qdir = os.path.abspath(self.quarantine_dir())
        for dirpath, _dirnames, filenames in os.walk(self.root):
            in_quarantine = os.path.abspath(dirpath) == qdir
            for name in filenames:
                if not name.endswith(ENTRY_SUFFIX):
                    continue
                if in_quarantine:
                    quarantined += 1
                    continue
                entries += 1
                try:
                    total_bytes += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
        return {
            "root": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "quarantined": quarantined,
        }

    def clear(self) -> int:
        """Delete every cached entry (quarantine included); returns how
        many live entries were removed."""
        removed = 0
        qdir = os.path.abspath(self.quarantine_dir())
        for dirpath, _dirnames, filenames in os.walk(self.root, topdown=False):
            in_quarantine = os.path.abspath(dirpath) == qdir
            for name in filenames:
                # ``.json``: entries of cache formats before v3.
                live = name.endswith(ENTRY_SUFFIX)
                if live or name.endswith(".json") or ".tmp" in name:
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        if live and not in_quarantine:
                            removed += 1
                    except OSError:
                        pass
            if dirpath != self.root:
                try:
                    os.rmdir(dirpath)
                except OSError:
                    pass
        return removed
