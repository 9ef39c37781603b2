"""Durable files: the one way this package writes a file that must
survive a crash, and reads back one that may not have.

The disk cache (:mod:`repro.core.diskcache`, which is also what
``repro sweep --resume`` restores from) keeps its own policy (keys,
what counts as a usable file) on top of these mechanics; telemetry
replay uses the JSON-lines reader.

A sealed file is a ``<4sHI`` header (magic, u16 version, u32 meta
length), a canonical-JSON meta object carrying ``payload_sha256`` and
``payload_bytes``, then the payload; docs/architecture.md §10 has the
table.
"""

from __future__ import annotations

import json
import os
import struct
import time
from typing import Any, Dict, List, Tuple

from repro.digest import sha256
from repro.faults import inject as _faults
from repro.obs import telemetry as _telemetry

#: Bad files are moved here, under the store's root.
QUARANTINE_DIR = "_quarantine"

#: A temp file older than this was left by a killed writer.
STALE_TMP_S = 15 * 60

_HEAD = struct.Struct("<4sHI")


class CorruptFile(Exception):
    """A durable file that cannot be trusted: torn, the wrong magic or
    version, unparseable meta, or a checksum mismatch.  Stores catch it,
    quarantine the file and fall back; it never escapes to the user as a
    raw ``KeyError``/``EOFError``."""

    def __init__(self, path: str, reason: str) -> None:
        self.reason = reason
        super().__init__(f"corrupt file {path}: {reason}")


def atomic_write(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` all at once, durably."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as out:
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_sealed(
    path: str, magic: bytes, version: int, meta: Dict[str, Any], payload: bytes
) -> None:
    """Atomically write one sealed file.  When the ``corrupt`` fault
    fires, a payload byte is flipped *after* hashing, so the injected
    damage is caught exactly like real bit rot."""
    meta = dict(meta)
    meta["payload_sha256"] = sha256(payload).hexdigest()
    meta["payload_bytes"] = len(payload)
    if _faults.should("corrupt") is not None and payload:
        payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    atomic_write(path, _HEAD.pack(magic, version, len(blob)) + blob + payload)


def read_sealed(
    path: str, magic: bytes, version: int, what: str
) -> Tuple[Dict[str, Any], bytes]:
    """Read and verify one sealed file; return ``(meta, payload)``.

    A file that cannot be read raises :class:`OSError`; every defect of
    its contents raises :class:`CorruptFile` (``what`` names the file in
    the reason).  The payload is returned only after its checksum
    verifies."""
    with open(path, "rb") as stream:
        data = stream.read()
    if len(data) < _HEAD.size:
        raise CorruptFile(path, "truncated header")
    got_magic, got_version, meta_len = _HEAD.unpack_from(data)
    if got_magic != magic:
        raise CorruptFile(path, f"not a {what} (magic {got_magic!r})")
    if got_version != version:
        raise CorruptFile(path, f"unsupported {what} version {got_version}")
    end = _HEAD.size + meta_len
    if len(data) < end:
        raise CorruptFile(path, "truncated meta block")
    try:
        meta = json.loads(data[_HEAD.size:end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptFile(path, f"unparseable meta: {exc}") from None
    if not isinstance(meta, dict) or "payload_sha256" not in meta:
        raise CorruptFile(path, "meta is not a checksum envelope")
    payload = data[end:]
    if sha256(payload).hexdigest() != meta["payload_sha256"]:
        raise CorruptFile(path, "payload checksum mismatch")
    return meta, payload


# Per-process count of quarantined files; the parallel runner diffs it
# around each point so quarantines show up in the live progress line and
# the sweep summary even when they happen inside worker processes.
_QUARANTINED = 0

# Roots already swept for stale tmp files this process (sweeping walks
# the tree, so do it once per root per process, not once per open).
_SWEPT_ROOTS: set = set()


def quarantine_count() -> int:
    """How many files this process has quarantined."""
    return _QUARANTINED


def quarantine(path: str, root: str, reason: str, kind: str, /, **fields: Any) -> None:
    """Move a bad file into ``<root>/_quarantine/`` (deleting it when it
    cannot be moved), so the same rot is never read twice, and report it
    as a ``kind`` telemetry record with ``reason`` and ``fields``."""
    global _QUARANTINED
    qdir = os.path.join(root, QUARANTINE_DIR)
    try:
        os.makedirs(qdir, exist_ok=True)
        os.replace(path, os.path.join(qdir, os.path.basename(path)))
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass
    _QUARANTINED += 1
    _telemetry.emit(kind, reason=reason, **fields)


def sweep_stale_tmp(
    root: str, max_age_s: float = STALE_TMP_S, *, once: bool = True
) -> int:
    """Delete temp files under ``root`` older than ``max_age_s``; return
    how many.  With ``once`` (the open-time sweep) each root is walked
    at most once per process."""
    if once and root in _SWEPT_ROOTS:
        return 0
    _SWEPT_ROOTS.add(root)
    swept = 0
    cutoff = time.time() - max_age_s
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            # ``<path>.tmp.<pid>`` from atomic_write.
            if ".tmp" not in name:
                continue
            full = os.path.join(dirpath, name)
            try:
                if os.path.getmtime(full) <= cutoff:
                    os.unlink(full)
                    swept += 1
            except OSError:
                pass
    return swept


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Every JSON-object line of ``path``, skipping lines that do not
    parse (a record torn by a killed writer must not hide the rest)."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8", errors="replace") as stream:
        for line in stream:
            try:
                record = json.loads(line)
            except ValueError:  # torn, or blank
                continue
            if isinstance(record, dict):
                records.append(record)
    return records
