"""Trace writer, readers, and in-memory trace packs.

Two on-disk representations feed the replay path:

* the **binary** RPTR format (:mod:`repro.trace.format`) written by
  ``repro record`` — compact, exact, per-core blocks;
* an **external text** format for traces captured outside this repo
  (``workload=<name>`` / ``cores=<n>`` header directives, then one
  ``<core> <gap> <kind> <addr>`` record per line) — see
  :func:`load_external_trace`.

Both readers validate every record and raise :class:`TraceFormatError`
— a structured error naming file, line/record and field — instead of a
bare parse exception; both support *skip-and-count* recovery
(``skip_bad_records=True`` drops malformed records and counts them in
``TracePack.skipped_records``, surfaced by ``repro replay
--skip-bad-records`` in the result extras).

:meth:`TracePack.iterator` replays one core's recorded events endlessly.
"""

from __future__ import annotations

import gzip
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.trace.format import EVENT_STRUCT, TRACE_MAGIC, TraceHeader
from repro.workloads.base import IFETCH, LOAD, STORE, TraceGenerator
from repro.workloads.registry import all_names, get_spec

Event = Tuple[int, int, int]
_VALID_KINDS = (IFETCH, LOAD, STORE)
_KIND_NAMES = {"ifetch": IFETCH, "load": LOAD, "store": STORE,
               "0": IFETCH, "1": LOAD, "2": STORE}


class TraceFormatError(ValueError):
    """A malformed trace file: names the file, the line (text form) or
    record (binary form), and the offending field, so the CLI can print
    one readable line (exit code 2) instead of a traceback."""

    def __init__(self, path: Union[str, Path], line: int, field: str, reason: str) -> None:
        self.path = str(path)
        self.line = line
        self.field = field
        self.reason = reason
        where = f"{self.path}:{line}" if line else self.path
        super().__init__(f"{where}: bad {field}: {reason}")


def _open(path: Union[str, Path], mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


class TraceWriter:
    """Write a complete per-core event matrix to disk."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def write(self, header: TraceHeader, per_core_events: Sequence[Sequence[Event]]) -> None:
        if len(per_core_events) != header.n_cores:
            raise ValueError("event matrix does not match header core count")
        for events in per_core_events:
            if len(events) != header.events_per_core:
                raise ValueError("event list does not match header event count")
        pack = EVENT_STRUCT.pack
        with _open(self.path, "wb") as out:
            out.write(header.encode())
            for events in per_core_events:
                for gap, kind, addr in events:
                    if kind not in _VALID_KINDS:
                        raise ValueError(f"invalid event kind {kind}")
                    out.write(pack(gap, kind, addr))


class TraceReader:
    """Read a binary trace file back into a :class:`TracePack`.

    ``skip_bad_records=True`` drops records with an invalid kind instead
    of failing (the fixed record size makes resynchronisation trivial)
    and truncates every core to the shortest surviving stream, so the
    pack stays rectangular; dropped records are counted on the pack.
    """

    def __init__(self, path: Union[str, Path], skip_bad_records: bool = False) -> None:
        self.path = Path(path)
        self.skip_bad_records = skip_bad_records

    def read(self) -> "TracePack":
        path = self.path
        skipped = 0
        try:
            with _open(path, "rb") as stream:
                try:
                    header = TraceHeader.decode(stream)
                except ValueError as exc:
                    raise TraceFormatError(path, 0, "header", str(exc)) from None
                unpack = EVENT_STRUCT.unpack
                size = EVENT_STRUCT.size
                cores: List[List[Event]] = []
                record_no = 0
                for _ in range(header.n_cores):
                    events: List[Event] = []
                    for _ in range(header.events_per_core):
                        record_no += 1
                        raw = stream.read(size)
                        if len(raw) != size:
                            raise TraceFormatError(
                                path, record_no, "record",
                                f"truncated trace body at record {record_no}",
                            )
                        event = unpack(raw)
                        if event[1] not in _VALID_KINDS:
                            if self.skip_bad_records:
                                skipped += 1
                                continue
                            raise TraceFormatError(
                                path, record_no, "kind",
                                f"invalid event kind {event[1]} "
                                f"(expected one of {list(_VALID_KINDS)})",
                            )
                        events.append(event)
                    cores.append(events)
        except OSError as exc:
            raise TraceFormatError(path, 0, "file", str(exc)) from None
        if skipped:
            shortest = min(len(events) for events in cores)
            cores = [events[:shortest] for events in cores]
            header = TraceHeader(
                workload=header.workload, n_cores=header.n_cores,
                events_per_core=shortest, seed=header.seed,
            )
            if shortest == 0:
                raise TraceFormatError(
                    path, 0, "body", "no valid records survived skipping"
                )
        pack = TracePack(header, cores)
        pack.skipped_records = skipped
        return pack


class TracePack:
    """A fully-materialised trace: header + per-core event lists.

    Feed it to :class:`repro.core.system.CMPSystem` via the ``trace``
    argument; every configuration then replays identical work.
    """

    def __init__(self, header: TraceHeader, per_core_events: Sequence[Sequence[Event]]) -> None:
        self.header = header
        self.per_core_events = [list(e) for e in per_core_events]
        #: Malformed records dropped by a skip-and-count reader.
        self.skipped_records = 0
        #: Trailing events dropped to keep per-core streams equal-length
        #: (external text traces only).
        self.dropped_tail = 0

    @property
    def workload(self) -> str:
        return self.header.workload

    @property
    def n_cores(self) -> int:
        return self.header.n_cores

    @property
    def events_per_core(self) -> int:
        return self.header.events_per_core

    def iterator(self, core: int) -> Iterator[Event]:
        """Endless per-core event stream.  It wraps around at the end, so
        warmup + measurement longer than the recording still works."""
        events = self.per_core_events[core]
        if not events:
            raise ValueError("cannot iterate an empty event list")
        return chain.from_iterable(repeat(events))

    def save(self, path: Union[str, Path]) -> None:
        TraceWriter(path).write(self.header, self.per_core_events)

    @staticmethod
    def load(path: Union[str, Path], skip_bad_records: bool = False) -> "TracePack":
        """Load a trace, auto-detecting binary (RPTR magic) vs external
        text form."""
        if _is_binary_trace(path):
            return TraceReader(path, skip_bad_records=skip_bad_records).read()
        return load_external_trace(path, skip_bad_records=skip_bad_records)


def _is_binary_trace(path: Union[str, Path]) -> bool:
    try:
        with _open(path, "rb") as stream:
            return stream.read(len(TRACE_MAGIC)) == TRACE_MAGIC
    except OSError as exc:
        raise TraceFormatError(path, 0, "file", str(exc)) from None


# -- external text traces -----------------------------------------------------


def _parse_directive(path, lineno: int, line: str, directives: dict) -> None:
    key, _, value = line.partition("=")
    key = key.strip().lower()
    value = value.strip()
    if key not in ("workload", "cores", "seed"):
        raise TraceFormatError(
            path, lineno, "directive",
            f"unknown directive {key!r} (expected workload=, cores= or seed=)",
        )
    if key == "workload":
        if value not in all_names():
            raise TraceFormatError(
                path, lineno, "workload",
                f"unknown workload {value!r}; choose from {', '.join(all_names())}",
            )
        directives[key] = value
        return
    try:
        number = int(value)
    except ValueError:
        raise TraceFormatError(
            path, lineno, key, f"must be an integer, got {value!r}"
        ) from None
    if key == "cores" and number <= 0:
        raise TraceFormatError(path, lineno, "cores", "must be positive")
    if key == "seed" and number < 0:
        raise TraceFormatError(path, lineno, "seed", "must be >= 0")
    directives[key] = number


def _parse_record(path, lineno: int, parts: List[str], n_cores: int) -> Tuple[int, Event]:
    if len(parts) != 4:
        raise TraceFormatError(
            path, lineno, "record",
            f"expected 4 fields '<core> <gap> <kind> <addr>', got {len(parts)}",
        )
    raw_core, raw_gap, raw_kind, raw_addr = parts
    try:
        core = int(raw_core)
    except ValueError:
        raise TraceFormatError(
            path, lineno, "core", f"must be an integer, got {raw_core!r}"
        ) from None
    if not 0 <= core < n_cores:
        raise TraceFormatError(
            path, lineno, "core", f"{core} outside [0, {n_cores})"
        )
    try:
        gap = int(raw_gap)
    except ValueError:
        raise TraceFormatError(
            path, lineno, "gap", f"must be an integer, got {raw_gap!r}"
        ) from None
    if not 0 <= gap <= 0xFFFFFFFF:
        raise TraceFormatError(path, lineno, "gap", f"{gap} outside [0, 2^32)")
    kind = _KIND_NAMES.get(raw_kind.lower())
    if kind is None:
        raise TraceFormatError(
            path, lineno, "kind",
            f"{raw_kind!r} is not ifetch/load/store (or 0/1/2)",
        )
    try:
        addr = int(raw_addr, 0)  # decimal or 0x-prefixed hex
    except ValueError:
        raise TraceFormatError(
            path, lineno, "addr", f"must be an integer line address, got {raw_addr!r}"
        ) from None
    if not 0 <= addr < 1 << 64:
        raise TraceFormatError(path, lineno, "addr", f"{addr} outside [0, 2^64)")
    return core, (gap, kind, addr)


def load_external_trace(
    path: Union[str, Path], skip_bad_records: bool = False
) -> TracePack:
    """Load an externally-captured trace in the validated text format.

    Format: ``#`` comments and blank lines are ignored; header
    directives ``workload=<registered name>`` and ``cores=<n>`` (plus
    optional ``seed=<n>``) must precede the records; each record is one
    line ``<core> <gap> <kind> <addr>`` with kind as ``ifetch``/``load``
    /``store`` (or 0/1/2) and addr decimal or ``0x``-hex.

    Every malformed record raises :class:`TraceFormatError` naming the
    file, line and field — or, with ``skip_bad_records=True``, is
    dropped and counted in ``TracePack.skipped_records``.  Per-core
    streams are truncated to the shortest core so the pack stays
    rectangular; the surplus is counted in ``TracePack.dropped_tail``.
    """
    directives: dict = {}
    per_core: Optional[List[List[Event]]] = None
    skipped = 0
    try:
        with _open(path, "rt") as stream:
            for lineno, raw in enumerate(stream, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" in line and per_core is None:
                    _parse_directive(path, lineno, line, directives)
                    continue
                if per_core is None:
                    for required in ("workload", "cores"):
                        if required not in directives:
                            raise TraceFormatError(
                                path, lineno, required,
                                f"{required}= directive must precede the records",
                            )
                    per_core = [[] for _ in range(directives["cores"])]
                try:
                    core, event = _parse_record(
                        path, lineno, line.split(), directives["cores"]
                    )
                except TraceFormatError:
                    if skip_bad_records:
                        skipped += 1
                        continue
                    raise
                per_core[core].append(event)
    except OSError as exc:
        raise TraceFormatError(path, 0, "file", str(exc)) from None
    if per_core is None:
        raise TraceFormatError(path, 0, "body", "no trace records found")
    shortest = min(len(events) for events in per_core)
    if shortest == 0:
        empty = min(range(len(per_core)), key=lambda i: len(per_core[i]))
        raise TraceFormatError(
            path, 0, "body", f"core {empty} has no valid records"
        )
    dropped = sum(len(events) - shortest for events in per_core)
    header = TraceHeader(
        workload=directives["workload"],
        n_cores=directives["cores"],
        events_per_core=shortest,
        seed=directives.get("seed", 0),
    )
    pack = TracePack(header, [events[:shortest] for events in per_core])
    pack.skipped_records = skipped
    pack.dropped_tail = dropped
    return pack


def record_trace(
    workload: str,
    *,
    n_cores: int = 8,
    events_per_core: int = 20_000,
    seed: int = 0,
    l2_lines: int = 16_384,
    l1i_lines: int = 256,
) -> TracePack:
    """Generate a workload's synthetic trace and freeze it in memory.

    ``l2_lines``/``l1i_lines`` size the footprints exactly as a live
    :class:`CMPSystem` would (they default to the scale-4 system).
    """
    if events_per_core < 1:
        raise ValueError(f"events_per_core must be positive, got {events_per_core}")
    spec = get_spec(workload)
    cores: List[List[Event]] = []
    for core in range(n_cores):
        gen = TraceGenerator(
            spec,
            core_id=core,
            n_cores=n_cores,
            l2_lines=l2_lines,
            l1i_lines=l1i_lines,
            seed=seed,
        )
        cores.append(gen.fill_chunk(events_per_core))
    header = TraceHeader(
        workload=workload, n_cores=n_cores, events_per_core=events_per_core, seed=seed
    )
    return TracePack(header, cores)
