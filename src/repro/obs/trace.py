"""Microarchitectural event tracing with Chrome trace-event export.

The simulator's headline phenomena — prefetch bursts saturating the pin
link, the adaptive throttle ramping down, compressed-line fractions
drifting per phase — are *dynamic*; end-of-run aggregates flatten them.
This module records simulated-time spans and instant events from
instrumentation points across the machine and exports them in the
Chrome trace-event JSON format, loadable directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

Track layout (one process, one thread per hardware resource):

* ``core N``     — demand-miss lifetimes and prefetch issue→fill spans
  for that core (``X`` complete events; misses from the same core can
  overlap in simulated time because the core only stalls for part of a
  miss, so spans are emitted as complete events, not B/E pairs);
* ``l2.bankN``   — bank busy-until occupancy (``X``);
* ``link``       — data-pin occupancy per message (``B``/``E`` pairs —
  the link is busy-until serialized, so spans never overlap);
* ``dram``       — per-request DRAM service windows (``X``);
* ``noc``        — on-chip line transfers (``X``);
* ``control``    — instant events (``i``) for adaptive-counter changes,
  prefetch outcome feedback, compression phase flips and audit checks,
  plus counter (``C``) samples of the adaptive throttle value;
* ``mshr``       — MSHR entry lifetimes (``X`` spans, request issue to
  data arrival; overlap depth == file occupancy) and coalesced
  secondary misses (``i``), present when ``mshr_entries`` is set.

Timestamps are simulated cycles reported in the JSON's microsecond
fields (1 cycle == 1 "us" on the viewer's axis).

Like the auditor, tracing is strictly read-only: results with tracing
enabled are bit-identical (same ``result_fingerprint``) to a plain run,
and when disabled each instrumentation site costs one ``is not None``
branch.  Enable via ``SystemConfig.trace=True`` or ``REPRO_TRACE``
(``REPRO_TRACE=0`` force-disables; any other non-empty value enables,
and a value that is a path — anything but ``0``/``1`` — makes
:meth:`CMPSystem.run` write the trace there when the run completes).
``REPRO_TRACE_LIMIT`` caps the in-memory event count (default 1e6);
events past the cap are counted in ``dropped_events`` metadata instead
of silently vanishing.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro import settings
from repro.core import durable

#: The single simulator process id used for every event.
PID = 1



class Tracer:
    """Collects trace events for one :class:`~repro.core.system.CMPSystem`.

    Instrumentation sites call the ``span``/``begin``/``end``/
    ``instant``/``counter`` methods with a *track id* obtained from the
    ``core_tid``/``bank_tid`` helpers or the named attributes
    (``link_tid``, ``dram_tid``, ``noc_tid``, ``control_tid``).  Track
    ids are assigned deterministically from the machine shape at
    construction, so the pid/tid mapping is stable across runs of the
    same configuration.
    """

    def __init__(self, n_cores: int, n_banks: int, limit: Optional[int] = None) -> None:
        if n_cores <= 0 or n_banks <= 0:
            raise ValueError("need at least one core and one bank")
        self.n_cores = n_cores
        self.n_banks = n_banks
        self.limit = settings.get("REPRO_TRACE_LIMIT") if limit is None else max(int(limit), 1)
        # Compact (ph, tid, name, ts, dur, args) records; JSON dicts are
        # only materialised at export.  Building a dict per event costs
        # ~3x a tuple append and keeps hundreds of thousands of tracked
        # containers alive for the GC, which showed up as double-digit
        # overhead on traced runs.
        self.events: List[tuple] = []
        self.dropped = 0
        # The issue time of the trace event currently being processed;
        # written by the hierarchy at the top of ``access`` so policy
        # hooks (which are not passed a clock) can timestamp instants.
        self.now = 0.0
        # tid map: cores first, then banks, then the shared resources.
        self.link_tid = n_cores + n_banks + 1
        self.dram_tid = n_cores + n_banks + 2
        self.noc_tid = n_cores + n_banks + 3
        self.control_tid = n_cores + n_banks + 4
        self.mshr_tid = n_cores + n_banks + 5
        self._metadata = self._build_metadata()

    # -- track ids ----------------------------------------------------------

    def core_tid(self, core: int) -> int:
        return core + 1

    def bank_tid(self, bank: int) -> int:
        return self.n_cores + bank + 1

    def _build_metadata(self) -> List[Dict[str, Any]]:
        """``M`` events naming the process and every track, emitted once."""

        def meta(name: str, tid: int, args: Dict[str, Any]) -> Dict[str, Any]:
            return {"ph": "M", "pid": PID, "tid": tid, "name": name, "args": args}

        events = [meta("process_name", 0, {"name": "repro-sim"})]
        names = [(self.core_tid(c), f"core {c}") for c in range(self.n_cores)]
        names += [(self.bank_tid(b), f"l2.bank{b}") for b in range(self.n_banks)]
        names += [
            (self.link_tid, "link"),
            (self.dram_tid, "dram"),
            (self.noc_tid, "noc"),
            (self.control_tid, "control"),
            (self.mshr_tid, "mshr"),
        ]
        for tid, name in names:
            events.append(meta("thread_name", tid, {"name": name}))
            events.append(meta("thread_sort_index", tid, {"sort_index": tid}))
        return events

    # -- event emission -----------------------------------------------------
    #
    # These run inside the simulator's hot loops, so each inlines its
    # limit check and appends one tuple — no helper call, no dict.  The
    # ``args`` payload may be a dict or a flat (key, value, key, value,
    # ...) tuple; hot sites use the tuple form because building a dict
    # per event costs ~3x as much and keeps GC-tracked garbage alive.

    def span(self, tid: int, name: str, ts: float, dur: float,
             args: Any = None) -> None:
        """One complete (``X``) event: a [ts, ts+dur] span on a track."""
        if len(self.events) < self.limit:
            self.events.append(("X", tid, name, ts, dur, args))
        else:
            self.dropped += 1

    def begin(self, tid: int, name: str, ts: float,
              args: Any = None) -> None:
        """Open a duration (``B``) event; pair with :meth:`end`."""
        if len(self.events) < self.limit:
            self.events.append(("B", tid, name, ts, None, args))
        else:
            self.dropped += 1

    def end(self, tid: int, ts: float) -> None:
        # A dropped B must not leave its E dangling: only emit the E when
        # the B made it in (the limit check is shared, so once the buffer
        # fills both halves are dropped together).
        if len(self.events) < self.limit:
            self.events.append(("E", tid, None, ts, None, None))
        else:
            self.dropped += 1

    def instant(self, tid: int, name: str, ts: float,
                args: Any = None) -> None:
        if len(self.events) < self.limit:
            self.events.append(("i", tid, name, ts, None, args))
        else:
            self.dropped += 1

    def counter(self, name: str, ts: float, values: Dict[str, float]) -> None:
        if len(self.events) < self.limit:
            self.events.append(("C", self.control_tid, name, ts, None, dict(values)))
        else:
            self.dropped += 1

    # -- policy hooks -------------------------------------------------------

    def adaptive_hook(self, name: str):
        """A feedback hook for one adaptive prefetch throttle
        (:class:`repro.prefetch.adaptive.AdaptiveController`).

        The controller calls ``hook(event, counter)`` with ``event`` in
        ``useful``/``useless``/``harmful``; the hook emits an instant on
        the control track and — whenever the counter actually moved — a
        counter (``C``) sample named ``adaptive.<name>``.  Timestamps
        come from :attr:`now` (stamped by the hierarchy), since the
        controllers are not passed a clock.
        """
        last: List[Optional[int]] = [None]

        def hook(event: str, counter: int) -> None:
            ts = self.now
            self.instant(self.control_tid, f"pf.{event}", ts, {"ctrl": name})
            if counter != last[0]:
                last[0] = counter
                self.counter(f"adaptive.{name}", ts, {"value": float(counter)})
        return hook

    def compression_hook(self):
        """A phase-flip hook for the ISCA'04 adaptive compression policy:
        called with ``(compressing, counter)`` whenever the global
        cost/benefit counter crosses zero."""

        def hook(compressing: bool, counter: int) -> None:
            self.instant(
                self.control_tid, "compression.phase", self.now,
                {"compress": bool(compressing), "counter": counter},
            )
        return hook

    def attribution_hook(self):
        """A classification hook for the causal-attribution tracker
        (:class:`repro.obs.attribution.AttributionTracker`): called with
        ``(kind, addr)`` as each demand miss is classified, emitting an
        ``attr.miss.<class>`` instant on the control track.  Only miss
        classifications are surfaced — per-eviction instants would flood
        the bounded trace buffer with the least interesting events.
        Timestamps come from :attr:`now` (the tracker has no clock)."""
        tid = self.control_tid

        def hook(kind: str, addr: int) -> None:
            self.instant(tid, "attr." + kind, self.now, ("addr", addr))
        return hook

    # -- export -------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object.

        Events are sorted by timestamp (metadata first) so consumers —
        and the schema validator — can rely on ``ts`` ordering; ``B``
        events sort before same-timestamp ``E`` events so zero-length
        pairs stay well-formed.
        """
        order = {"M": 0, "B": 1, "X": 2, "i": 3, "C": 4, "E": 5}
        body = []
        for ph, tid, name, ts, dur, args in sorted(
            self.events, key=lambda e: (e[3], order.get(e[0], 9), e[1])
        ):
            event: Dict[str, Any] = {"ph": ph, "pid": PID, "tid": tid, "ts": ts}
            if name is not None:
                event["name"] = name
            if ph == "X":
                event["dur"] = max(dur, 0.0)
            elif ph == "i":
                event["s"] = "t"  # thread-scoped instant
            if args:
                if type(args) is tuple:
                    args = dict(zip(args[::2], args[1::2]))
                event["args"] = args
            body.append(event)
        return {
            "traceEvents": self._metadata + body,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs.trace",
                "clock_unit": "simulated cycles",
                "dropped_events": self.dropped,
            },
        }

    def write(self, path: str) -> None:
        text = json.dumps(self.to_dict(), separators=(",", ":")) + "\n"
        durable.atomic_write(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# schema validation (used by tests and the CI smoke job)
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = {"ph", "pid", "tid"}
_KNOWN_PH = {"M", "B", "E", "X", "i", "C"}


def validate_trace(data: Dict[str, Any]) -> List[str]:
    """Check a trace object against the Chrome trace-event contract.

    Returns a list of human-readable problems (empty == valid):

    * the container has a ``traceEvents`` list;
    * every event has ``ph``/``pid``/``tid`` and a known phase;
    * non-metadata events carry a numeric ``ts``, sorted non-decreasing;
    * every ``B`` has a matching ``E`` on the same (pid, tid), properly
      nested, and no ``E`` appears without an open ``B``;
    * ``X`` events have a non-negative ``dur``;
    * the pid/tid mapping is stable: each (pid, tid) has at most one
      ``thread_name`` metadata record, and every event's track is named.
    """
    problems: List[str] = []
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    last_ts: Optional[float] = None
    open_stacks: Dict[tuple, int] = {}
    thread_names: Dict[tuple, str] = {}
    named_pids = set()
    for i, event in enumerate(events):
        if not isinstance(event, dict) or not _REQUIRED_KEYS <= set(event):
            problems.append(f"event {i}: missing required keys")
            continue
        ph = event["ph"]
        track = (event["pid"], event["tid"])
        if ph not in _KNOWN_PH:
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph == "M":
            if event.get("name") == "thread_name":
                if track in thread_names:
                    problems.append(
                        f"event {i}: duplicate thread_name for pid/tid {track}"
                    )
                thread_names[track] = event.get("args", {}).get("name", "")
            elif event.get("name") == "process_name":
                named_pids.add(event["pid"])
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: non-numeric ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(f"event {i}: ts {ts} < previous {last_ts} (unsorted)")
        last_ts = ts
        if ph == "B":
            open_stacks[track] = open_stacks.get(track, 0) + 1
        elif ph == "E":
            depth = open_stacks.get(track, 0)
            if depth <= 0:
                problems.append(f"event {i}: E without open B on pid/tid {track}")
            else:
                open_stacks[track] = depth - 1
        elif ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: X with bad dur {dur!r}")
        if event["pid"] not in named_pids and ph != "M":
            problems.append(f"event {i}: pid {event['pid']} has no process_name")
        if track not in thread_names and ph != "M":
            problems.append(f"event {i}: tid {track} has no thread_name metadata")
    for track, depth in open_stacks.items():
        if depth:
            problems.append(f"{depth} unmatched B event(s) on pid/tid {track}")
    return problems
