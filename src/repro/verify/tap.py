"""Op-stream tap for differential verification.

The functional oracle (:mod:`repro.verify.oracle`) replays the exact
demand-access sequence the timing simulator executed and re-derives all
*structural* state and counters independently.  Two things in the access
path are genuinely timing-dependent and cannot be re-derived without a
timing model:

* whether a prefetch issue attempt was **dropped** at the DRAM
  outstanding-request limit (``DRAM.can_issue`` depends on in-flight
  completion times) or at a full MSHR file,
* whether a line fetch **coalesced** onto an in-flight MSHR entry
  (``("C", addr)``, recorded around ``_fetch_line`` when
  ``mshr_entries`` is configured — the coalescing window is the time
  between request issue and data arrival, pure timing), and
* where ``reset_stats`` fell in the interleaved event order.

The tap records exactly that: one ``("D", core, kind, addr)`` entry per
demand access, one ``["P1", core, kind, addr, outcome]`` /
``["P2", core, addr, outcome]`` entry per prefetch issue *attempt*
(outcome is ``"issued"``, ``"dropped"`` or ``"skipped"``), and a
``("RESET",)`` marker.  Prefetch records are appended before the call
runs, so nested records (an L1 prefetch triggering L2 prefetches) appear
in call order, which is exactly the order the oracle re-derives them in.
Everything else — which prefetch addresses are generated, whether they
are skipped as already-resident, every hit/miss/eviction — is predicted
by the oracle from the "D" stream alone; the prefetch records double as
a cross-check on those predictions.

The tap wraps *instance attributes* of a :class:`MemoryHierarchy`
(``access``, ``_issue_l1_prefetch``, ``_issue_l2_prefetch``,
``reset_stats``, and ``_fetch_line`` when an MSHR file is configured);
``CMPSystem._run_events`` binds ``hierarchy.access`` at run start, so
install the tap before calling ``run()``.  Outcomes are derived from
counter deltas around each call:
the per-level ``issued``/``dropped`` counters for prefetches (nested
calls only ever touch *other* levels' counters, so the deltas are
unambiguous) and the MSHR file's ``coalesced`` counter for fetches.
"""

from __future__ import annotations

from typing import List

from repro.core.hierarchy import MemoryHierarchy
from repro.workloads.base import IFETCH

DEMAND = "D"
L1_PREFETCH = "P1"
L2_PREFETCH = "P2"
COALESCE = "C"
RESET = "RESET"

ISSUED = "issued"
DROPPED = "dropped"
SKIPPED = "skipped"


class OpTap:
    """Records the hierarchy's op stream; install before ``run()``."""

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy
        self.ops: List = []
        self._installed = False

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "OpTap":
        if self._installed:
            raise RuntimeError("tap already installed")
        h = self.hierarchy
        ops = self.ops
        orig_access = h.access
        orig_p1 = h._issue_l1_prefetch
        orig_p2 = h._issue_l2_prefetch
        orig_fetch = h._fetch_line
        orig_reset = h.reset_stats

        def access(core: int, kind: int, addr: int, now: float):
            ops.append((DEMAND, core, kind, addr))
            return orig_access(core, kind, addr, now)

        def issue_l1_prefetch(core: int, kind: int, addr: int, now: float) -> None:
            rec = [L1_PREFETCH, core, kind, addr, SKIPPED]
            ops.append(rec)
            stats = h.pf_stats["l1i" if kind == IFETCH else "l1d"]
            issued0, dropped0 = stats.issued, stats.dropped
            orig_p1(core, kind, addr, now)
            if stats.issued > issued0:
                rec[4] = ISSUED
            elif stats.dropped > dropped0:
                rec[4] = DROPPED

        def issue_l2_prefetch(core: int, addr: int, now: float) -> None:
            rec = [L2_PREFETCH, core, addr, SKIPPED]
            ops.append(rec)
            stats = h.pf_stats["l2"]
            issued0, dropped0 = stats.issued, stats.dropped
            orig_p2(core, addr, now)
            if stats.issued > issued0:
                rec[3] = ISSUED
            elif stats.dropped > dropped0:
                rec[3] = DROPPED

        def fetch_line(core: int, addr: int, request_ready: float, demand: bool):
            coalesced0 = h.mshr.coalesced
            out = orig_fetch(core, addr, request_ready, demand)
            if h.mshr.coalesced > coalesced0:
                ops.append((COALESCE, addr))
            return out

        def reset_stats() -> None:
            ops.append((RESET,))
            orig_reset()

        h.access = access
        h._issue_l1_prefetch = issue_l1_prefetch
        h._issue_l2_prefetch = issue_l2_prefetch
        if h.mshr is not None:  # only an MSHR file coalesces
            h._fetch_line = fetch_line
        h.reset_stats = reset_stats
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        h = self.hierarchy
        for name in (
            "access", "_issue_l1_prefetch", "_issue_l2_prefetch", "_fetch_line",
            "reset_stats",
        ):
            try:
                delattr(h, name)
            except AttributeError:
                pass
        self._installed = False

    def __enter__(self) -> "OpTap":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
