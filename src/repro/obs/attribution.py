"""Causal attribution: per-event "why" provenance for misses and evictions.

The paper's Figure-8 decomposition (:mod:`repro.core.missclass`) only
*estimates* the miss split by set arithmetic over four aggregate runs;
the simulator itself never records why an individual miss happened or
what evicted an individual line.  This module closes that gap with a
read-only provenance tracker that rides the hierarchy's fill/evict/miss
sites:

* every cached line is tagged with its **inserter** (demand fill, L1
  prefetch, or L2 prefetch);
* every eviction is recorded with its **cause** — a demand fill needing
  the frame, a prefetch fill needing the frame, a compression-expansion
  repack, or (for L1 copies) an inclusion back-invalidation or an
  S->M upgrade invalidation;
* every L2 demand miss is classified online into ``compulsory``
  (first demand reference to a line never previously resident),
  ``pollution`` (the line was recently evicted from its set by a
  *prefetch* fill), ``expansion`` (recently evicted by a compression
  repack), or ``capacity`` (everything else), via a per-set shadow
  victim-tag filter of the last ``tags_per_set`` evictions per set;
* per-policy ledgers accumulate prefetch useful/late/useless/polluting
  counts and compression bytes-saved vs avoided-miss counts.

Classification is exhaustive and exclusive, so the totals reconcile
exactly: attributed misses sum to ``l2.demand_misses``, L2 eviction
causes sum to ``l2.evictions``, L1 fill-eviction causes sum to L1
``evictions`` and L1 invalidation causes sum to L1
``coherence_invalidations`` (:meth:`AttributionTracker.reconcile`
checks all four).

Like tracing and metrics, attribution is strictly read-only: results
with it enabled are bit-identical (same ``result_fingerprint``) to a
plain run.  The tracker's ``on_*`` handlers take the hierarchy's events
from the one observer hook path (:mod:`repro.obs.observers`).  The
``attr_*`` rows it adds to ``SimulationResult.extra`` are observations
*about* the run, so :func:`repro.report.export.
result_fingerprint` strips them before hashing.  Enable via
``SystemConfig.attribution=True``; ``repro run --why [PATH]`` does so,
prints the why table and writes the ledgers to PATH as JSON.

Two structural notes:

* the ``expansion`` channel is wired end to end but reads zero under
  the current value model: a line's compressed size is fixed at fill
  time (``ValueModel.segments_for`` is static per address), so no
  resident line ever grows and forces a repack eviction.  The channel
  exists so a future dynamic value model lights it up without another
  wiring pass;
* a compression "avoided miss" is a demand hit whose LRU stack depth is
  at or beyond ``uncompressed_assoc`` — the line is resident only
  because compression packed extra lines into the set (the same
  criterion the ISCA'04 adaptive-compression policy counts as benefit).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from repro.core import durable
from repro.params import SEGMENT_BYTES, SEGMENTS_PER_LINE

#: L2 demand-miss classes (exhaustive and exclusive).
MISS_CLASSES = ("compulsory", "capacity", "pollution", "expansion")

#: L2 capacity-eviction causes (who needed the frame / segments).
L2_EVICT_CAUSES = ("demand_fill", "prefetch_fill", "expansion")

#: L1 eviction causes: capacity (which fill kind) or invalidation kind.
L1_EVICT_CAUSES = ("demand_fill", "prefetch_fill", "inclusion", "upgrade")

#: Line inserters recorded on every L2 fill.
INSERTERS = ("demand", "l1_prefetch", "l2_prefetch")


class AttributionLedger:
    """The measurement ledgers of one attributed run: the counters, the
    quantities derived from them, reconciliation and export.

    :class:`AttributionTracker` fills them live; :meth:`from_extra`
    reads a finished run's back from its result.
    """

    def __init__(self) -> None:
        self.reset_counters()

    def reset_counters(self) -> None:
        """Zero the measurement ledgers (warmup boundary); keep state."""
        self.miss_class = {cls: 0 for cls in MISS_CLASSES}
        self.l2_evict_cause = {cause: 0 for cause in L2_EVICT_CAUSES}
        self.l1_evict_cause = {cause: 0 for cause in L1_EVICT_CAUSES}
        self.l2_fills = {kind: 0 for kind in INSERTERS}
        self.pf_useful = 0  # prefetched lines demand-touched before eviction
        self.pf_late = 0  # ...of which the touch had to wait for the fill
        self.pf_useless = 0  # prefetched lines evicted untouched
        self.comp_fills = 0  # lines stored compressed
        self.comp_segments_saved = 0  # segments freed vs uncompressed storage
        self.comp_avoided_hits = 0  # demand hits beyond uncompressed depth

    @staticmethod
    def from_extra(extra: Dict[str, float]) -> Optional["AttributionLedger"]:
        """The ledgers of a finished run, read back from the ``attr_*``
        rows :meth:`to_extra` put in its ``SimulationResult.extra``;
        None when the run had attribution off."""
        if "attr_pf_useful" not in extra:
            return None
        ledger = AttributionLedger()
        for counts, prefix in (
            (ledger.miss_class, "attr_miss_"),
            (ledger.l2_evict_cause, "attr_l2_evict_"),
            (ledger.l1_evict_cause, "attr_l1_evict_"),
            (ledger.l2_fills, "attr_fill_"),
        ):
            for name in counts:
                counts[name] = int(extra[prefix + name])
        for name in ("pf_useful", "pf_late", "pf_useless", "comp_fills",
                     "comp_avoided_hits"):
            setattr(ledger, name, int(extra["attr_" + name]))
        ledger.comp_segments_saved = int(extra["attr_comp_bytes_saved"]) // SEGMENT_BYTES
        return ledger

    # -- derived quantities -------------------------------------------------

    @property
    def pf_polluting(self) -> int:
        """Demand misses attributed to prefetch pollution."""
        return self.miss_class["pollution"]

    @property
    def comp_expansion_evictions(self) -> int:
        return self.l2_evict_cause["expansion"]

    @property
    def comp_bytes_saved(self) -> int:
        return self.comp_segments_saved * SEGMENT_BYTES

    def classified_misses(self) -> int:
        return sum(self.miss_class.values())

    def pollution_share(self) -> float:
        """Fraction of classified demand misses caused by pollution."""
        total = self.classified_misses()
        return self.miss_class["pollution"] / total if total else 0.0

    def expansion_share(self) -> float:
        total = self.classified_misses()
        return self.miss_class["expansion"] / total if total else 0.0

    # -- reconciliation -----------------------------------------------------

    def reconcile(self, *, l2_demand_misses: int, l2_evictions: int,
                  l1_evictions: int, l1_invalidations: int) -> List[str]:
        """Exact-accounting check; returns problems (empty == reconciled).

        Pass the post-run stats totals: ``l1_evictions`` and
        ``l1_invalidations`` summed over both L1 levels.
        """
        problems: List[str] = []
        attributed = self.classified_misses()
        if attributed != l2_demand_misses:
            problems.append(
                f"miss classes sum to {attributed}, "
                f"l2.demand_misses is {l2_demand_misses}"
            )
        causes = sum(self.l2_evict_cause.values())
        if causes != l2_evictions:
            problems.append(
                f"L2 eviction causes sum to {causes}, "
                f"l2.evictions is {l2_evictions}"
            )
        fills = (self.l1_evict_cause["demand_fill"]
                 + self.l1_evict_cause["prefetch_fill"])
        if fills != l1_evictions:
            problems.append(
                f"L1 fill-eviction causes sum to {fills}, "
                f"L1 evictions total {l1_evictions}"
            )
        invals = (self.l1_evict_cause["inclusion"]
                  + self.l1_evict_cause["upgrade"])
        if invals != l1_invalidations:
            problems.append(
                f"L1 invalidation causes sum to {invals}, "
                f"L1 coherence_invalidations total {l1_invalidations}"
            )
        return problems

    def reconcile_result(self, result) -> List[str]:
        """:meth:`reconcile` against a :class:`SimulationResult`."""
        return self.reconcile(
            l2_demand_misses=result.l2.demand_misses,
            l2_evictions=result.l2.evictions,
            l1_evictions=result.l1i.evictions + result.l1d.evictions,
            l1_invalidations=(result.l1i.coherence_invalidations
                              + result.l1d.coherence_invalidations),
        )

    # -- export -------------------------------------------------------------

    def to_extra(self) -> Dict[str, float]:
        """``attr_*`` rows for ``SimulationResult.extra`` (stripped from
        ``result_fingerprint``: observations about the run, not state)."""
        extra: Dict[str, float] = {}
        for cls, count in self.miss_class.items():
            extra[f"attr_miss_{cls}"] = float(count)
        for cause, count in self.l2_evict_cause.items():
            extra[f"attr_l2_evict_{cause}"] = float(count)
        for cause, count in self.l1_evict_cause.items():
            extra[f"attr_l1_evict_{cause}"] = float(count)
        for kind, count in self.l2_fills.items():
            extra[f"attr_fill_{kind}"] = float(count)
        extra["attr_pf_useful"] = float(self.pf_useful)
        extra["attr_pf_late"] = float(self.pf_late)
        extra["attr_pf_useless"] = float(self.pf_useless)
        extra["attr_pf_polluting"] = float(self.pf_polluting)
        extra["attr_comp_fills"] = float(self.comp_fills)
        extra["attr_comp_bytes_saved"] = float(self.comp_bytes_saved)
        extra["attr_comp_avoided_hits"] = float(self.comp_avoided_hits)
        extra["attr_comp_expansion_evictions"] = float(
            self.comp_expansion_evictions
        )
        return extra

    def to_dict(self) -> Dict[str, object]:
        avoided = self.comp_avoided_hits
        return {
            "miss_class": dict(self.miss_class),
            "l2_evict_cause": dict(self.l2_evict_cause),
            "l1_evict_cause": dict(self.l1_evict_cause),
            "l2_fills": dict(self.l2_fills),
            "prefetch": {
                "useful": self.pf_useful,
                "late": self.pf_late,
                "useless": self.pf_useless,
                "polluting": self.pf_polluting,
            },
            "compression": {
                "fills_compressed": self.comp_fills,
                "bytes_saved": self.comp_bytes_saved,
                "avoided_misses": avoided,
                "bytes_saved_per_avoided_miss": (
                    self.comp_bytes_saved / avoided if avoided else 0.0
                ),
                "expansion_evictions": self.comp_expansion_evictions,
            },
            "shares": {
                "pollution": self.pollution_share(),
                "expansion": self.expansion_share(),
            },
        }

    def table(self) -> str:
        """Aligned text rendering of the attribution ledgers."""
        lines: List[str] = []

        def section(title: str, rows: List[tuple]) -> None:
            lines.append(title)
            width = max(len(label) for label, _ in rows)
            for label, value in rows:
                lines.append(f"  {label:<{width}}  {value}")

        total = self.classified_misses() or 1
        section("demand misses (why)", [
            (cls, f"{self.miss_class[cls]:>8} "
                  f"({100.0 * self.miss_class[cls] / total:5.1f}%)")
            for cls in MISS_CLASSES
        ])
        section("L2 evictions (cause)", [
            (cause, f"{self.l2_evict_cause[cause]:>8}")
            for cause in L2_EVICT_CAUSES
        ])
        section("L1 evictions (cause)", [
            (cause, f"{self.l1_evict_cause[cause]:>8}")
            for cause in L1_EVICT_CAUSES
        ])
        section("L2 fills (inserter)", [
            (kind, f"{self.l2_fills[kind]:>8}") for kind in INSERTERS
        ])
        section("prefetch ledger", [
            ("useful", f"{self.pf_useful:>8}"),
            ("late", f"{self.pf_late:>8}"),
            ("useless", f"{self.pf_useless:>8}"),
            ("polluting", f"{self.pf_polluting:>8}"),
        ])
        avoided = self.comp_avoided_hits
        section("compression ledger", [
            ("fills compressed", f"{self.comp_fills:>8}"),
            ("bytes saved", f"{self.comp_bytes_saved:>8}"),
            ("avoided misses", f"{avoided:>8}"),
            ("bytes/avoided miss",
             f"{self.comp_bytes_saved / avoided if avoided else 0.0:>10.1f}"),
            ("expansion evictions", f"{self.comp_expansion_evictions:>8}"),
        ])
        return "\n".join(lines)

    def write(self, path: str) -> None:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        durable.atomic_write(path, text.encode("utf-8"))


class AttributionTracker(AttributionLedger):
    """Per-event provenance for one :class:`~repro.core.system.CMPSystem`.

    Hooks receive only scalars (addresses, cause strings, booleans).

    Counter state (the ledgers) zeroes on :meth:`reset_counters` at the
    warmup boundary; provenance state — the first-touch set, resident
    line tags, and per-set shadow victim filters — is state of the
    *machine*, not of the measurement, and persists across the reset
    (otherwise every post-warmup miss would look compulsory).
    """

    def __init__(self, config, stack_depth: Callable[[int], int]) -> None:
        """``stack_depth`` is the L2's ``CompressedSetCache.stack_depth``,
        read by :meth:`on_l2_demand_hit` before the hit's LRU touch."""
        self.n_sets = config.l2.n_sets
        self.filter_depth = config.l2.tags_per_set
        self.uncompressed_assoc = config.l2.uncompressed_assoc
        self._stack_depth = stack_depth
        self.cache_compressed = config.l2.compressed
        # -- persistent provenance state (survives reset_counters) -----
        self._seen: set = set()  # addrs ever resident in the L2
        self._l2_lines: Dict[int, list] = {}  # addr -> [inserter, touched]
        # Shadow victim-tag filter: per set, the last filter_depth
        # evicted addrs -> eviction cause (insertion-ordered dict; the
        # oldest entry ages out first).
        self._shadow: List[Dict[int, str]] = [{} for _ in range(self.n_sets)]
        super().__init__()

    # -- event handlers (repro.obs.observers; scalars only) -------------------

    #: The warmup stats reset zeroes the ledgers and keeps provenance.
    on_reset = AttributionLedger.reset_counters

    def on_l2_demand_miss(self, addr: int) -> str:
        """Classify one L2 demand miss; returns the class name."""
        if addr not in self._seen:
            cls = "compulsory"
        else:
            cause = self._shadow[addr % self.n_sets].get(addr)
            if cause == "prefetch_fill":
                cls = "pollution"
            elif cause == "expansion":
                cls = "expansion"
            else:
                # Evicted by a demand fill, or aged out of the filter.
                cls = "capacity"
        self.miss_class[cls] += 1
        return cls

    def on_l2_fill(self, addr: int, inserter: str, segments: int) -> None:
        """Tag a freshly filled L2 line.  ``segments`` is the pre-clamp
        compressed size (as counted in ``CompressionStats``); storage
        is only actually compressed when the cache is."""
        self._seen.add(addr)
        self._l2_lines[addr] = [inserter, False]
        self.l2_fills[inserter] += 1
        if self.cache_compressed and segments < SEGMENTS_PER_LINE:
            self.comp_fills += 1
            self.comp_segments_saved += SEGMENTS_PER_LINE - segments

    def on_l2_evict(self, addr: int, cause: str) -> None:
        """Record one L2 eviction's cause; feeds the shadow filter."""
        info = self._l2_lines.pop(addr, None)
        self.l2_evict_cause[cause] += 1
        if info is not None and not info[1] and info[0] != "demand":
            self.pf_useless += 1
        shadow = self._shadow[addr % self.n_sets]
        if addr in shadow:
            del shadow[addr]
        shadow[addr] = cause
        if len(shadow) > self.filter_depth:
            del shadow[next(iter(shadow))]

    def on_l2_demand_hit(self, addr: int, late: bool) -> None:
        """Ledger bookkeeping for one L2 demand hit, before its LRU touch.

        A hit whose LRU stack depth is at or past ``uncompressed_assoc``
        is an avoided miss under compression; the depth is read here, so
        only an attributed run pays that O(assoc) scan.  ``late``: the
        line's fill was still in flight (a prefetched line that arrived
        too late to fully hide the latency).
        """
        info = self._l2_lines.get(addr)
        if info is not None and not info[1]:
            if info[0] != "demand":
                self.pf_useful += 1
                if late:
                    self.pf_late += 1
            info[1] = True
        if self._stack_depth(addr) >= self.uncompressed_assoc:
            self.comp_avoided_hits += 1

    def on_l1_fill(self, level: str, core: int, addr: int,
                   inserter: str) -> None:
        """Takes no event: nothing emits ``l1_fill`` any more.  The empty
        method stays only because simbench's span ledger wraps it by name
        (``vars(AttributionTracker)["on_l1_fill"]``), so removing it would
        raise ``KeyError`` in every traced simbench run."""

    def on_l1_evict(self, level: str, core: int, addr: int,
                    cause: str) -> None:
        self.l1_evict_cause[cause] += 1
