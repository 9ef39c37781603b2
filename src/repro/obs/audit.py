"""Runtime invariant auditing for the CMP model.

The paper's conclusions rest entirely on miss/latency accounting: a
silently-corrupted counter or a timing bug in a rewritten hot path
poisons every downstream figure.  This module provides an opt-in auditor
that re-derives the model's structural and accounting invariants from
first principles and compares them against the live state — the software
analogue of Touché-style runtime tag checking.

Invariant groups:

* **cache structure** — delegated to
  :meth:`repro.cache.set_assoc.SetAssocCache.check_invariants` and
  :meth:`repro.cache.compressed.CompressedSetCache.check_invariants`:
  LRU-stack/``_map`` agreement, invalid-at-tail ordering, per-set
  segment budgets, tag conservation;
* **inclusion & directory** — every valid L1 line is backed by a valid
  L2 line whose sharer bit for that core is set; sharer bits and the
  modified-owner id never point at cores that do not hold the line;
* **stats conservation** — hits + misses == accesses, link byte/message
  /flit totals agree, DRAM issues match link requests, prefetch
  usefulness equals the prefetch/partial hit counts, and the taxonomy's
  resolved outcomes reconcile with the prefetch statistics.

Violations raise :class:`AuditViolation`, which carries the full list of
structured :class:`Violation` records (invariant name, message, context
dict) so a failure pinpoints the broken state instead of a boolean.

Enable via ``SystemConfig.audit=True`` (``repro run --audit``).
``SystemConfig.audit_interval`` sets the cadence in trace events.  Auditing is read-only:
results with auditing on are bit-identical to auditing off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cache.line import MSIState
from repro.params import SEGMENT_BYTES


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to debug it."""

    invariant: str
    message: str
    context: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        ctx = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
        return f"[{self.invariant}] {self.message}" + (f" ({ctx})" if ctx else "")


class AuditViolation(AssertionError):
    """Raised when an audit finds one or more broken invariants.

    ``violations`` holds every problem found in the failing sweep (the
    auditor never stops at the first), so one failure shows the full
    blast radius.
    """

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations: List[Violation] = list(violations)
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines += [f"  {v}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        super().__init__("\n".join(lines))


# ---------------------------------------------------------------------------
# invariant sweeps (each returns a list of Violations; empty == healthy)
# ---------------------------------------------------------------------------


def audit_cache_structure(hierarchy) -> List[Violation]:
    """Structural invariants of every cache in the hierarchy."""
    violations: List[Violation] = []
    caches = [("l2", hierarchy.l2)]
    for core, (l1i, l1d) in enumerate(zip(hierarchy.l1i, hierarchy.l1d)):
        caches.append((f"l1i[{core}]", l1i))
        caches.append((f"l1d[{core}]", l1d))
    for name, cache in caches:
        for invariant, message, context in cache.check_invariants():
            ctx = dict(context)
            ctx["cache"] = name
            violations.append(Violation(invariant, message, ctx))
    return violations


def audit_inclusion(hierarchy) -> List[Violation]:
    """L1 ⊆ L2 inclusion and directory-sharer/owner consistency."""
    violations: List[Violation] = []
    l2map = hierarchy.l2._map
    for core in range(hierarchy.config.n_cores):
        for name, l1 in (("l1i", hierarchy.l1i[core]), ("l1d", hierarchy.l1d[core])):
            for addr, entry in l1._map.items():
                if not entry.valid:
                    continue
                l2e = l2map.get(addr)
                if l2e is None or not l2e.valid:
                    violations.append(Violation(
                        "inclusion.l1_line_not_in_l2",
                        "valid L1 line has no backing L2 line",
                        {"core": core, "cache": name, "addr": addr},
                    ))
                    continue
                if not (l2e.sharers >> core) & 1:
                    violations.append(Violation(
                        "directory.missing_sharer_bit",
                        "L1 holds the line but its sharer bit is clear",
                        {"core": core, "cache": name, "addr": addr,
                         "sharers": l2e.sharers},
                    ))
                if entry.state == MSIState.MODIFIED and l2e.owner != core:
                    violations.append(Violation(
                        "directory.owner_mismatch",
                        "L1 line is Modified but the L2 owner disagrees",
                        {"core": core, "cache": name, "addr": addr,
                         "owner": l2e.owner},
                    ))
    n_cores = hierarchy.config.n_cores
    for addr, l2e in l2map.items():
        if not l2e.valid:
            continue
        if l2e.owner != -1 and not (l2e.sharers >> l2e.owner) & 1:
            violations.append(Violation(
                "directory.owner_not_sharer",
                "owner core's sharer bit is clear",
                {"addr": addr, "owner": l2e.owner, "sharers": l2e.sharers},
            ))
        if l2e.sharers >> n_cores:
            violations.append(Violation(
                "directory.sharer_out_of_range",
                "sharer bits set beyond the core count",
                {"addr": addr, "sharers": l2e.sharers, "n_cores": n_cores},
            ))
        sharers = l2e.sharers
        core = 0
        while sharers:
            if sharers & 1:
                e_i = hierarchy.l1i[core]._map.get(addr)
                e_d = hierarchy.l1d[core]._map.get(addr)
                if not ((e_i is not None and e_i.valid) or (e_d is not None and e_d.valid)):
                    violations.append(Violation(
                        "directory.stale_sharer_bit",
                        "sharer bit set but neither L1 of that core holds the line",
                        {"addr": addr, "core": core, "sharers": l2e.sharers},
                    ))
            sharers >>= 1
            core += 1
    return violations


def _check(violations: List[Violation], ok: bool, invariant: str, message: str,
           context: Dict[str, object]) -> None:
    if not ok:
        violations.append(Violation(invariant, message, context))


def audit_stats(hierarchy, expected_l1_accesses: Optional[int] = None) -> List[Violation]:
    """Conservation laws across the statistics counters."""
    violations: List[Violation] = []
    h = hierarchy

    # Non-negativity of every raw counter.
    for name, stats in (("l1i", h.l1i_stats), ("l1d", h.l1d_stats), ("l2", h.l2_stats),
                        ("link", h.link.stats), *((f"pf.{k}", v) for k, v in h.pf_stats.items())):
        for fname in stats.__dataclass_fields__:
            value = getattr(stats, fname)
            _check(violations, value >= 0, "stats.negative_counter",
                   "counter went negative", {"stats": name, "field": fname, "value": value})

    # hits + misses == accesses, re-derived from the driver's event count.
    if expected_l1_accesses is not None:
        observed = h.l1i_stats.demand_accesses + h.l1d_stats.demand_accesses
        _check(violations, observed == expected_l1_accesses, "stats.l1_access_conservation",
               "L1 demand accesses disagree with the events driven",
               {"observed": observed, "expected": expected_l1_accesses})

    # Every L1 miss becomes exactly one demand L2 access (stream buffers
    # siphon some demand misses off before they reach the L2 stats).
    l1_misses = h.l1i_stats.demand_misses + h.l1d_stats.demand_misses
    if h.stream_buffers is None:
        _check(violations, h.l2_stats.demand_accesses == l1_misses,
               "stats.l2_access_conservation",
               "demand L2 accesses disagree with L1 misses",
               {"l2_accesses": h.l2_stats.demand_accesses, "l1_misses": l1_misses})

    # Prefetch usefulness == prefetch hits + partial hits, per level.
    for level, cache_stats in (("l1i", h.l1i_stats), ("l1d", h.l1d_stats), ("l2", h.l2_stats)):
        pf = h.pf_stats[level]
        hits = cache_stats.prefetch_hits + cache_stats.partial_hits
        # Note: useful can legitimately exceed issued right after a stats
        # reset (warmup-issued prefetches resolving during measurement),
        # so only this equality — not useful+useless<=issued — is a law.
        _check(violations, pf.useful == hits, "stats.useful_vs_prefetch_hits",
               "prefetcher 'useful' count disagrees with prefetch+partial hits",
               {"level": level, "useful": pf.useful, "prefetch_hits": cache_stats.prefetch_hits,
                "partial_hits": cache_stats.partial_hits})

    # Taxonomy totals vs. the prefetch statistics, per level.
    for level in ("l1i", "l1d", "l2"):
        counts = h.taxonomy.level(level)
        pf = h.pf_stats[level]
        _check(violations, counts.issued == pf.issued, "taxonomy.issued_mismatch",
               "taxonomy issue count disagrees with the prefetcher's",
               {"level": level, "taxonomy": counts.issued, "prefetcher": pf.issued})
        used = counts.useful + counts.useful_polluting
        _check(violations, used == pf.useful, "taxonomy.used_mismatch",
               "taxonomy used outcomes disagree with the useful count",
               {"level": level, "taxonomy": used, "useful": pf.useful})
        evicted = counts.useless + counts.harmful
        _check(violations, evicted >= pf.useless, "taxonomy.evicted_mismatch",
               "taxonomy evicted outcomes lost useless events",
               {"level": level, "taxonomy": evicted, "useless": pf.useless})

    # Link accounting: bytes split, header sizing, flit totals.
    link = h.link.stats
    header = h.config.link.header_bytes
    _check(violations, link.bytes_total == link.bytes_data + link.bytes_header,
           "link.bytes_split", "byte totals do not add up",
           {"total": link.bytes_total, "data": link.bytes_data, "header": link.bytes_header})
    _check(violations, link.bytes_header == link.messages * header,
           "link.header_bytes", "header bytes disagree with the message count",
           {"header_bytes": link.bytes_header, "messages": link.messages,
            "per_message": header})
    if header and SEGMENT_BYTES % header == 0:
        # Flit counts are exact only when the header size divides the
        # 8-byte segment (true for every configuration we model).
        _check(violations, link.flits * header == link.bytes_total,
               "link.flit_total", "flit count disagrees with the byte total",
               {"flits": link.flits, "bytes_total": link.bytes_total})
    _check(violations, link.data_messages <= link.messages,
           "link.message_split", "more data messages than messages",
           {"data": link.data_messages, "messages": link.messages})

    # Link messages vs. DRAM issues: every fetch sends one request and
    # one data response; writebacks add data messages on top (L1
    # inclusion-fallback writebacks are the only slack).
    fetches = h.dram.demand_requests + h.dram.prefetch_requests
    requests = link.messages - link.data_messages
    _check(violations, requests == fetches, "link.requests_vs_dram",
           "request messages disagree with DRAM issues",
           {"requests": requests, "dram_issues": fetches})
    expected_data = fetches + h.l2_stats.writebacks
    slack = h.l1i_stats.writebacks + h.l1d_stats.writebacks
    _check(violations, expected_data <= link.data_messages <= expected_data + slack,
           "link.data_vs_fills", "data messages disagree with fills + writebacks",
           {"data_messages": link.data_messages, "fills": fetches,
            "l2_writebacks": h.l2_stats.writebacks, "l1_writeback_slack": slack})

    # Compression accounting: one size decision per L2 fill.  A fill
    # whose fetch coalesced onto an in-flight MSHR entry still makes a
    # size decision but never reached DRAM, so coalesced fills close
    # the balance.
    if h.stream_buffers is None:
        noted = h.compression_stats.compressed_lines + h.compression_stats.uncompressed_lines
        coalesced = h.mshr.coalesced if h.mshr is not None else 0
        _check(violations, noted == fetches + coalesced, "compression.fill_conservation",
               "line-compression decisions disagree with memory fetches",
               {"noted": noted, "fetches": fetches, "coalesced": coalesced})
    return violations


def audit_hierarchy(
    hierarchy,
    expected_l1_accesses: Optional[int] = None,
    raise_on_violation: bool = True,
) -> List[Violation]:
    """Run every invariant sweep; raise :class:`AuditViolation` on failure."""
    violations = audit_cache_structure(hierarchy)
    violations += audit_inclusion(hierarchy)
    violations += audit_stats(hierarchy, expected_l1_accesses)
    if violations and raise_on_violation:
        raise AuditViolation(violations)
    return violations


class Auditor:
    """Periodic audit driver owned by a running :class:`CMPSystem`.

    ``interval`` is the number of trace events between full sweeps;
    ``checks_run`` / ``violations_found`` feed telemetry and
    ``repro run --audit``.
    """

    def __init__(self, hierarchy, interval: int = 4096) -> None:
        if interval <= 0:
            raise ValueError("audit interval must be positive")
        self.hierarchy = hierarchy
        self.interval = interval
        self.checks_run = 0
        self.violations_found = 0

    def check(self, expected_l1_accesses: Optional[int] = None) -> None:
        """One full sweep; raises :class:`AuditViolation` on any problem."""
        self.checks_run += 1
        try:
            audit_hierarchy(self.hierarchy, expected_l1_accesses)
        except AuditViolation as exc:
            self.violations_found += len(exc.violations)
            raise
