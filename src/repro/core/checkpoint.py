"""Crash-safe sweep checkpointing: an append-only journal of completed
points that makes ``repro sweep --resume`` possible.

The journal records every completed point — full-fidelity result plus
its ``result_fingerprint`` — as one JSON line, flushed and fsynced
before the sweep moves on, so a ``kill -9`` at any moment loses at most
the point being written.  Resuming loads the journal, seeds the
already-completed results bit-identically (the serialization round-trip
is lossless), and re-simulates only the remainder.

Journal line shape::

    {"v": 1, "key": "<sha256 of coords+kwargs>", "coords": {...},
     "outcome": "ok", "fingerprint": "...", "result": {...}}
    {"v": 1, "key": "...", "coords": {...}, "outcome": "error",
     "error": {"kind": "...", "error": "...", "workload": ..., "key": ...}}

The journal is a JSON-lines log of :mod:`repro.core.durable`: a
truncated trailing line (the record being written when the process
died) is skipped on load and cut before a resumed sweep appends.  An
``ok`` record whose result does not match its fingerprint is
recomputed; ``error`` records are loaded but *not* treated as
completed, so a resumed sweep retries them.

Journals live under ``REPRO_SWEEP_DIR`` (see :mod:`repro.settings`),
named by a hash of the sweep specification, so rerunning the same
command with ``--resume`` finds the right file without bookkeeping.
"""

from __future__ import annotations

import os
import signal
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro import settings
from repro.core import durable
from repro.core.results import SimulationResult
from repro.digest import stable_hash
from repro.obs import telemetry as _telemetry
from repro.report.export import (
    result_fingerprint,
    result_from_dict,
    result_to_full_dict,
)

JOURNAL_VERSION = 1

def sweep_spec_key(**spec: Any) -> str:
    """A short stable identity for one sweep specification (workloads,
    configs, events, ... — everything that changes the results, nothing
    that only changes the execution, like ``jobs``)."""
    return stable_hash({"v": JOURNAL_VERSION, "spec": spec}, default=repr)[:16]


def point_journal_key(coords: Dict[str, Any], kwargs: Dict[str, Any]) -> str:
    """The journal key for one grid point: coordinates + run arguments."""
    return stable_hash({"v": JOURNAL_VERSION, "coords": coords, "kwargs": kwargs}, default=repr)


def default_journal_path(spec_key: str) -> str:
    return os.path.join(settings.get("REPRO_SWEEP_DIR"), f"sweep-{spec_key}.jsonl")


class SweepJournal:
    """Append-only JSONL checkpoint of completed sweep points.

    ``resume=True`` loads existing records (last record per key wins);
    ``resume=False`` starts fresh, truncating any stale journal at the
    same path on first write.
    """

    def __init__(self, path: str, resume: bool = False) -> None:
        self.path = path
        self.resume = resume
        self.loaded: Dict[str, Dict[str, Any]] = {}
        self.recorded = 0
        self._fh = None
        if resume and os.path.exists(path):
            try:
                records = durable.read_jsonl(path)
            except OSError:
                records = []
            self.loaded = {str(r["key"]): r for r in records if "key" in r}

    # -- reading ------------------------------------------------------------

    def result_for(self, key: str) -> Optional[SimulationResult]:
        """The completed result for a point key, or None when the point
        is absent, failed, or its record is corrupt: it does not
        deserialize, or its result no longer matches the fingerprint
        written beside it.  A corrupt record degrades to a recompute
        (and a ``corrupt`` telemetry record), never an error."""
        record = self.loaded.get(key)
        if not record or record.get("outcome") != "ok":
            return None
        try:
            result = result_from_dict(record["result"])
        except (ValueError, KeyError, TypeError):
            reason = "result does not deserialize"
        else:
            if result_fingerprint(result) == record.get("fingerprint"):
                return result
            reason = "fingerprint mismatch"
        _telemetry.emit(
            "journal", action="corrupt", path=self.path, key=key, reason=reason
        )
        return None

    def completed_count(self) -> int:
        return sum(1 for r in self.loaded.values() if r.get("outcome") == "ok")

    # -- writing ------------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            self._fh = durable.open_append(self.path, fresh=not self.resume)
        durable.append_line(self._fh, record)
        self.recorded += 1

    def record_result(
        self, key: str, coords: Dict[str, Any], result: SimulationResult
    ) -> None:
        self._append({
            "v": JOURNAL_VERSION,
            "key": key,
            "coords": coords,
            "outcome": "ok",
            "fingerprint": result_fingerprint(result),
            "result": result_to_full_dict(result),
        })

    def record_error(self, key: str, coords: Dict[str, Any], error: Any) -> None:
        self._append({
            "v": JOURNAL_VERSION,
            "key": key,
            "coords": coords,
            "outcome": "error",
            "error": {
                "kind": getattr(error, "kind", "error"),
                "error": getattr(error, "error", repr(error)),
                "workload": getattr(error, "workload", None),
                "key": getattr(error, "key", None),
                "attempts": getattr(error, "attempts", 1),
            },
        })

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


@contextmanager
def resume_guard(
    journal: Optional[SweepJournal],
    resume_command: str,
    stream=None,
) -> Iterator[None]:
    """Install SIGINT/SIGTERM handlers for the duration of a sweep: on
    either signal the journal is flushed (every record already is — this
    closes the handle), the resume command is printed, and the usual
    interrupt/terminate control flow proceeds (exit code 130/143).

    Harmless outside the main thread or where signals are unavailable —
    it degrades to a no-op context.
    """
    out = stream if stream is not None else sys.stderr

    def _handler(signum, _frame):
        if journal is not None:
            journal.close()
            done = journal.completed_count() + journal.recorded
            print(
                f"\ninterrupted: {done} completed point(s) checkpointed in "
                f"{journal.path}",
                file=out,
            )
        print(f"resume with:\n  {resume_command}", file=out)
        if signum == getattr(signal, "SIGTERM", None):
            raise SystemExit(143)
        raise KeyboardInterrupt

    previous = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _handler)
            except (ValueError, OSError):  # not the main thread / unsupported
                pass
        yield
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):
                pass
        if _telemetry.enabled() and journal is not None and journal.recorded:
            _telemetry.emit(
                "journal",
                path=journal.path,
                loaded=len(journal.loaded),
                recorded=journal.recorded,
            )
