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

The tracer's ``on_*`` handlers take the simulator's scalar events from
its one observer hook path (:mod:`repro.obs.observers`) and are the only
code that knows the tracks, span names and arguments below.  Tracing is
strictly read-only: results are bit-identical to a plain run.  Enable
via ``SystemConfig.trace=True`` or ``REPRO_TRACE`` (``REPRO_TRACE=0``
force-disables; any other non-empty value enables,
and a value that is a path — anything but ``0``/``1`` — makes
:meth:`CMPSystem.run` write the trace there when the run completes).
The tracer's ``limit`` (``repro trace --limit``) caps the in-memory
event count (default 1e6); events past the cap are counted in
``dropped_events`` metadata instead of silently vanishing.
"""

from __future__ import annotations

import gc
import json
from typing import Any, Dict, List, Optional

from repro.core import durable

#: The single simulator process id used for every event.
PID = 1


class Tracer:
    """Collects trace events for one :class:`~repro.core.system.CMPSystem`.

    The ``on_*`` event handlers record through the ``span``/``instant``/
    ``counter`` methods with a *track id* obtained from the
    ``core_tid``/``bank_tid`` helpers or the named attributes
    (``link_tid``, ``dram_tid``, ``noc_tid``, ``control_tid``,
    ``mshr_tid``).  Track ids are assigned deterministically from the
    machine shape at construction, so the pid/tid mapping is stable
    across runs of the same configuration.
    """

    def __init__(self, n_cores: int, n_banks: int, limit: int = 1_000_000) -> None:
        if n_cores <= 0 or n_banks <= 0:
            raise ValueError("need at least one core and one bank")
        self.n_cores = n_cores
        self.n_banks = n_banks
        self.limit = max(int(limit), 1)
        # Compact (ph, tid, name, ts, dur, args) records; JSON dicts are
        # only materialised at export.  Building a dict per event costs
        # ~3x a tuple append and keeps hundreds of thousands of tracked
        # containers alive for the GC, which showed up as double-digit
        # overhead on traced runs.
        self.events: List[tuple] = []
        self.dropped = 0
        # The hub this tracer is armed on (repro.obs.observers); its
        # ``now`` times the events that carry no clock.
        self.clock = None
        self._throttle: Dict[str, int] = {}  # last counter drawn per throttle
        self._gc_threshold: Optional[tuple] = None
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

    # -- events (repro.obs.observers) ---------------------------------------
    #
    # One handler per event of the hook path.  This is the only code that
    # turns simulator events into tracks, spans, instants and counters.

    def on_bank_busy(self, bank: int, start: float, duration: float) -> None:
        # Busy-until occupancy, so a bank's spans never overlap.
        self.span(self.bank_tid(bank), "busy", start, duration)

    def on_demand_miss_done(self, core: int, level: str, now: float,
                            latency: float, addr: int) -> None:
        self.span(self.core_tid(core), level + "_miss", now, latency, ("addr", addr))

    def on_prefetch_done(self, core: int, level: str, addr: int, now: float,
                         latency: float, stream_buffer: bool) -> None:
        """A prefetch's issue-to-fill window on the issuing core's track."""
        args = ("addr", addr, "placement", "stream_buffer") if stream_buffer else ("addr", addr)
        self.span(self.core_tid(core), "pf." + level, now, latency, args)

    def on_mshr_coalesce(self, core: int, addr: int, t: float) -> None:
        self.instant(self.mshr_tid, "coalesce", t, ("addr", addr, "core", core))

    def on_mshr_fetch(self, core: int, addr: int, demand: bool, start: float,
                      done: float) -> None:
        self.span(self.mshr_tid, "demand" if demand else "prefetch",
                  start, done - start, ("addr", addr, "core", core))

    def on_link_data(self, start: float, done: float, nbytes: int, queue: float) -> None:
        # The link is busy-until serialized, so its spans never overlap
        # and the track can use a paired B/E duration event.  Both halves
        # go in or neither does: a B kept without its E would leave an
        # unmatched pair in a trace cut at the limit.
        if len(self.events) + 2 <= self.limit:
            self.events.append(("B", self.link_tid, "data", start, None,
                                ("bytes", nbytes, "queue", queue)))
            self.events.append(("E", self.link_tid, None, done, None, None))
        else:
            self.dropped += 2

    def on_noc_transfer(self, core: int, start: float, duration: float) -> None:
        self.span(self.noc_tid, "line", start, duration, ("core", core))

    def on_dram_service(self, core: int, demand: bool, start: float, done: float) -> None:
        self.span(self.dram_tid, "demand" if demand else "prefetch",
                  start, done - start, ("core", core))

    def on_throttle_feedback(self, ctrl: str, event: str, counter: int) -> None:
        """An adaptive throttle's useful/useless/harmful feedback: an
        instant, plus an ``adaptive.<ctrl>`` sample when the counter moved."""
        ts = self.clock.now
        self.instant(self.control_tid, "pf." + event, ts, {"ctrl": ctrl})
        if self._throttle.get(ctrl) != counter:
            self._throttle[ctrl] = counter
            self.counter("adaptive." + ctrl, ts, {"value": float(counter)})

    def on_compression_phase(self, compressing: bool, counter: float) -> None:
        """The adaptive compression counter crossed zero."""
        self.instant(
            self.control_tid, "compression.phase", self.clock.now,
            {"compress": bool(compressing), "counter": counter},
        )

    def on_miss_class(self, cls: str, addr: int) -> None:
        """An L2 demand miss as the attribution tracker classified it.
        Only misses are drawn: per-eviction instants would flood the
        bounded buffer with the least interesting events."""
        self.instant(self.control_tid, "attr.miss." + cls, self.clock.now, ("addr", addr))

    def on_run_phase(self, name: str, t: float) -> None:
        if self._gc_threshold is None:
            # Tracing allocates one buffered record per event; at the
            # default collection cadence those allocations trigger
            # frequent full GC passes over the (large, mostly-static)
            # cache heap, which measured as a double-digit share of the
            # traced run's wall clock.  The trace buffer is cycle-free,
            # so deferring collection is safe; on_run_end restores it.
            self._gc_threshold = gc.get_threshold()
            gc.set_threshold(100_000, *self._gc_threshold[1:])
        self.instant(self.control_tid, "phase." + name, t)

    def on_audit_check(self, t: float) -> None:
        self.instant(self.control_tid, "audit.check", t)

    def on_run_end(self) -> None:
        if self._gc_threshold is not None:
            gc.set_threshold(*self._gc_threshold)
            self._gc_threshold = None

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
