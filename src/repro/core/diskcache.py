"""Persistent on-disk result cache.

Simulation points are pure functions of (system configuration, workload,
seed, event counts), so their results can be stored content-addressed
and reused across processes — a warm sweep in a fresh interpreter does
no simulation at all.  Keys are a SHA-256 over the canonical JSON of the
full :class:`~repro.params.SystemConfig` plus the run parameters and a
format version, so *any* config change (including future fields) yields
a different key rather than a stale hit.

Layout: ``<root>/<key[:2]>/<key>.json``, one result per file wrapping
the full-fidelity form of :func:`repro.report.export.result_to_full_dict`
in an integrity envelope::

    {"checksum": "<sha256 of the canonical result JSON>", "result": {...}}

Writes are atomic (temp file + ``os.replace``), so concurrent writers —
e.g. :class:`repro.core.runner.ParallelRunner` workers — at worst both
compute the same point and one rename wins.

The cache is *self-healing*: an entry that fails to parse or whose
checksum does not match (torn write, disk corruption, an injected
``corrupt`` fault) is moved into ``<root>/_quarantine/`` and reported as
a distinct ``corrupt`` telemetry outcome — never a silent ``miss`` —
then recomputed.  Stale ``*.json.tmp.*`` files left by killed writers
are swept on first open per process, and ``repro cache verify`` audits
every entry's checksum on demand.

``REPRO_CACHE`` and ``REPRO_CACHE_DIR`` are declared in
:mod:`repro.settings`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict
from typing import Dict, Optional

from repro import faults, settings
from repro.core.results import SimulationResult
from repro.obs import telemetry as _telemetry
from repro.params import SystemConfig
from repro.report.export import (
    RESULT_SCHEMA_VERSION,
    result_from_dict,
    result_to_full_dict,
)

#: Bump to invalidate every existing cache entry (key derivation change).
#: v2: entries carry a per-entry integrity checksum envelope.
CACHE_FORMAT_VERSION = 2

#: Corrupt entries are moved here (under the cache root) for post-mortem
#: inspection instead of being deleted or silently re-read forever.
QUARANTINE_DIR = "_quarantine"

#: A ``*.json.tmp.<pid>`` older than this is a leftover from a killed
#: writer, not an in-flight write, and is swept on open.
STALE_TMP_S = 15 * 60


def point_key(
    config: SystemConfig,
    workload: str,
    seed: int,
    events: int,
    warmup: int,
) -> str:
    """Stable content hash identifying one simulation point.

    Observability knobs (auditing, tracing, metrics, attribution) are
    stripped from the hashed config: they never change simulation
    results — the audit
    and obs test suites prove bit-identical fingerprints — so toggling
    them must not split the cache into parallel universes of identical
    results.
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
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _checksum(result_dict: Dict) -> str:
    blob = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# Per-process count of quarantined entries; the parallel runner diffs it
# around each point so quarantines show up in the live progress line and
# the sweep summary even when they happen inside worker processes.
_QUARANTINED = 0

# Roots already swept for stale tmp files this process (sweeping walks
# the tree, so do it once per root per process, not once per open).
_SWEPT_ROOTS: set = set()


def quarantine_count() -> int:
    """How many corrupt entries this process has quarantined."""
    return _QUARANTINED


class DiskCache:
    """Content-addressed store of simulation results under one root."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else settings.get("REPRO_CACHE_DIR")
        self._sweep_stale_tmp()

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def quarantine_dir(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR)

    # -- read/write ---------------------------------------------------------

    def get(self, key: str) -> Optional[SimulationResult]:
        """Load a cached result, or None on miss *or* corrupt entry.

        A missing file is a ``miss``.  An unparseable, checksum-failing
        or schema-invalid entry is ``corrupt``: it is quarantined (so
        the same rot is never re-read) and the point degrades to a
        recompute, never an error.
        """
        path = self.path_for(key)
        hit = faults.should("slowio", token=key)
        if hit is not None:
            time.sleep(hit.arg if hit.arg is not None else 0.02)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            _telemetry.emit("diskcache", outcome="miss", key=key)
            return None
        except OSError:
            # Unreadable but present (permissions, I/O error): degrade to
            # a miss — the entry may be fine for the next reader.
            _telemetry.emit("diskcache", outcome="miss", key=key)
            return None
        except ValueError:
            self._quarantine(path, key, reason="unparseable JSON")
            return None
        try:
            if not isinstance(data, dict) or "result" not in data:
                raise ValueError("entry is not a checksum envelope")
            if data.get("checksum") != _checksum(data["result"]):
                raise ValueError("checksum mismatch")
            result = result_from_dict(data["result"])
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, key, reason=str(exc))
            return None
        _telemetry.emit("diskcache", outcome="hit", key=key)
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store a result atomically; failures are swallowed (the cache
        is an accelerator, not a correctness dependency) but recorded as
        a telemetry-visible ``store-failed`` outcome, and the temp file
        is always cleaned up — serialization errors (``TypeError`` /
        ``ValueError`` from ``json.dump``) must not leave
        ``*.json.tmp.<pid>`` litter behind."""
        path = self.path_for(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        hit = faults.should("slowio", token=key)
        if hit is not None:
            time.sleep(hit.arg if hit.arg is not None else 0.02)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            payload = result_to_full_dict(result)
            extra = payload.get("extra", {})
            if any(k.startswith("attr_") for k in extra):
                # Attribution rows are observations about one run, and
                # the key above deliberately ignores the attribution
                # knob; strip them so a cached entry is the same bytes
                # whether the producing run had attribution on or off.
                payload["extra"] = {
                    k: v for k, v in extra.items()
                    if not k.startswith("attr_")
                }
            digest = _checksum(payload)
            if faults.should("corrupt", token=key) is not None:
                # Model silent bit rot: the entry stays valid JSON, so
                # only the checksum (not the parser) can catch it.
                digest = "deadbeef" + digest[8:]
            blob = json.dumps(
                {"checksum": digest, "result": payload}, separators=(",", ":")
            )
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, path)
            _telemetry.emit("diskcache", outcome="store", key=key)
        except (OSError, TypeError, ValueError) as exc:
            _telemetry.emit(
                "diskcache", outcome="store-failed", key=key,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def contains(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    # -- self-healing -------------------------------------------------------

    def _quarantine(self, path: str, key: str, reason: str) -> None:
        """Move a corrupt entry aside and account for it."""
        global _QUARANTINED
        qdir = self.quarantine_dir()
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        _QUARANTINED += 1
        _telemetry.emit("diskcache", outcome="corrupt", key=key, reason=reason)

    def _sweep_stale_tmp(self, max_age_s: float = STALE_TMP_S) -> int:
        """Delete ``*.json.tmp.*`` files older than ``max_age_s`` left by
        killed writers.  Runs at most once per root per process."""
        if self.root in _SWEPT_ROOTS or not os.path.isdir(self.root):
            _SWEPT_ROOTS.add(self.root)
            return 0
        _SWEPT_ROOTS.add(self.root)
        return self._sweep_tmp_files(max_age_s)

    def _sweep_tmp_files(self, max_age_s: float = 0.0) -> int:
        swept = 0
        cutoff = time.time() - max_age_s
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if ".json.tmp." not in name:
                    continue
                full = os.path.join(dirpath, name)
                try:
                    if os.path.getmtime(full) <= cutoff:
                        os.unlink(full)
                        swept += 1
                except OSError:
                    pass
        return swept

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
                if not name.endswith(".json"):
                    continue
                checked += 1
                path = os.path.join(dirpath, name)
                key = name[: -len(".json")]
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        data = json.load(fh)
                    if not isinstance(data, dict) or "result" not in data:
                        raise ValueError("entry is not a checksum envelope")
                    if data.get("checksum") != _checksum(data["result"]):
                        raise ValueError("checksum mismatch")
                    result_from_dict(data["result"])
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    corrupt += 1
                    self._quarantine(path, key, reason=str(exc))
        swept = self._sweep_tmp_files(max_age_s=0.0)
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
                if not name.endswith(".json"):
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
                if name.endswith(".json") or ".json.tmp." in name:
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        if name.endswith(".json") and not in_quarantine:
                            removed += 1
                    except OSError:
                        pass
            if dirpath != self.root:
                try:
                    os.rmdir(dirpath)
                except OSError:
                    pass
        return removed
