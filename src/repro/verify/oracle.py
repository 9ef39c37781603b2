"""Timing-free functional reference hierarchy (the differential oracle).

:class:`ReferenceHierarchy` is an independent re-implementation of the
memory hierarchy's *structural* semantics — inclusive L1I/L1D/L2 with
true-LRU stacks, the MSI directory, victim tags, the decoupled
variable-segment L2 packing, the ISCA'04 adaptive-compression counter,
link/DRAM traffic accounting and the effective-size sampling — built on
plain address-keyed dicts and lists rather than the simulator's
tag-frame arrays.  It replays the op stream captured by
:class:`repro.verify.tap.OpTap` and predicts every structural counter
the simulator reports; :meth:`compare` then checks them field by field,
along with the complete final machine state (LRU orders, MSI states,
dirty/prefetch bits, sharer vectors, segment accounting, victim tags).

What is *not* predicted, and why:

* ``partial_hits`` vs ``prefetch_hits`` — the split depends on whether
  the demanded line's fill was still in flight (pure timing).  Their
  **sum** is structural; the oracle tracks it in ``prefetch_hits`` and
  the comparison checks the sum.
* prefetch ``issued`` vs ``dropped`` when DRAM- or MSHR-gated — taken
  from the recorded outcome (see :mod:`repro.verify.tap`); every other
  skip/issue decision is re-derived structurally and cross-checked.
* whether a fetch coalesced onto an in-flight MSHR entry — the window
  is pure timing, so the recorded ``("C", addr)`` entries are taken as
  given; the oracle then *checks* the address, replays the structural
  consequences (no DRAM access, no link messages, the in-flight
  fetch's segment count) and predicts ``mshr.allocations`` and
  ``mshr.coalesced`` exactly.
* latencies, histograms, queue/stall cycles, elapsed time — timing
  (including MSHR stalls and MSHR/write-back-buffer occupancy peaks).

Prefetch *address generation* (stride detection, stream tables,
adaptive throttles, sequential degree control) is driven through replica
policy instances of the real prefetcher classes, fed by oracle-derived
hit/miss events.  The oracle therefore predicts which prefetch attempts
happen and with which addresses; the recorded P1/P2 entries are consumed
in order and any disagreement in kind, core, address or outcome is
itself a detected divergence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.params import SystemConfig
from repro.prefetch.adaptive import AdaptiveController
from repro.prefetch.pointer import PointerChasePrefetcher
from repro.prefetch.sequential import SequentialPrefetcher
from repro.prefetch.stream_buffer import StreamBufferPool
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.taxonomy import PrefetchTaxonomy
from repro.stats.counters import CacheStats, PrefetchStats
from repro.verify import tap as _tap
from repro.workloads.base import IFETCH, STORE
from repro.workloads.values import ValueModel

# Local MSI constants: the oracle deliberately avoids importing the
# simulator's cache structures (repro.cache.*) so a bug there cannot
# leak into the reference model.
_INVALID, _SHARED, _MODIFIED = 0, 1, 2
_SEGMENTS_PER_LINE = 8
_SAMPLE_EVERY = 512
_LINE_BYTES = 64
_SEGMENT_BYTES = 8


class OracleMismatch(AssertionError):
    """The simulator and the reference model diverged."""


# ----------------------------------------------------------------------
# tree-PLRU, re-derived independently of repro.cache.plru
# ----------------------------------------------------------------------
#
# Same packed representation as the simulator (node 0 the root, node i's
# children at 2i+1 / 2i+2, one int per set) so final bit state can be
# compared directly, but the walks are derived from the binary digits of
# the way index rather than the simulator's range-halving loop.


def _plru_touch(bits: int, way: int, ways: int) -> int:
    levels = ways.bit_length() - 1
    node = 0
    for depth in range(levels):
        right = (way >> (levels - 1 - depth)) & 1
        if right:
            bits &= ~(1 << node)  # point left, away from the touched way
        else:
            bits |= 1 << node  # point right
        node = 2 * node + 1 + right
    return bits


def _plru_victim(bits: int, ways: int, mask: int) -> int:
    levels = ways.bit_length() - 1
    node = 0
    way = 0
    for depth in range(levels):
        width = 1 << (levels - 1 - depth)  # ways per child subtree
        left_mask = ((1 << width) - 1) << way
        right = (bits >> node) & 1
        if right:
            if not (mask & (left_mask << width)):
                right = 0  # no candidate on the right: divert
        elif not (mask & left_mask):
            right = 1
        node = 2 * node + 1 + right
        if right:
            way += width
    return way


# ----------------------------------------------------------------------
# reference structures
# ----------------------------------------------------------------------


class _Line:
    """One cached line's structural state (address-keyed)."""

    __slots__ = ("state", "dirty", "prefetch_bit", "segments", "sharers", "owner")

    def __init__(
        self,
        state: int = _SHARED,
        dirty: bool = False,
        prefetch_bit: bool = False,
        segments: int = _SEGMENTS_PER_LINE,
        sharers: int = 0,
        owner: int = -1,
    ) -> None:
        self.state = state
        self.dirty = dirty
        self.prefetch_bit = prefetch_bit
        self.segments = segments
        self.sharers = sharers
        self.owner = owner


class _Evicted:
    """What a reference-model insertion or invalidation pushed out."""

    __slots__ = ("addr", "dirty", "prefetch_untouched", "state", "sharers", "owner", "segments")

    def __init__(self, addr: int, line: _Line) -> None:
        self.addr = addr
        self.dirty = line.dirty
        self.prefetch_untouched = line.prefetch_bit
        self.state = line.state
        self.sharers = line.sharers
        self.owner = line.owner
        self.segments = line.segments


class _RefL1:
    """True-LRU set-associative cache with address-list victim tags.

    The simulator reuses tag frames and keeps invalid frames at the
    stack tail; structurally that is equivalent to "evict the LRU line
    exactly when the set already holds ``assoc`` valid lines", which is
    what this model implements directly.
    """

    def __init__(self, n_sets: int, assoc: int, victim_depth: int, plru: bool = False) -> None:
        self.n_sets = n_sets
        self.assoc = assoc
        self.victim_depth = victim_depth
        self.plru = plru
        self.sets: List[List[int]] = [[] for _ in range(n_sets)]  # MRU-first addrs
        self.lines: Dict[int, _Line] = {}
        self.victims: List[List[int]] = [[] for _ in range(n_sets)]
        # Tree-PLRU state: per-set packed direction bits plus the
        # physical way each resident address occupies (the simulator's
        # fixed tag frames; only meaningful when ``plru``, since LRU
        # victim choice never depends on physical placement).
        self.bits: List[int] = [0] * n_sets
        self.ways: Dict[int, int] = {}

    def touch(self, addr: int) -> None:
        idx = addr % self.n_sets
        stack = self.sets[idx]
        if stack[0] != addr:
            stack.remove(addr)
            stack.insert(0, addr)
        if self.plru:  # unconditional, even when the line was already MRU
            self.bits[idx] = _plru_touch(self.bits[idx], self.ways[addr], self.assoc)

    def _note_victim(self, addr: int) -> None:
        if self.victim_depth:
            victims = self.victims[addr % self.n_sets]
            if addr in victims:
                victims.remove(addr)
            victims.insert(0, addr)
            del victims[self.victim_depth:]

    def insert(self, addr: int, state: int, dirty: bool, prefetch: bool) -> Optional[_Evicted]:
        if addr in self.lines:
            raise OracleMismatch(f"oracle L1 insert of resident line {addr:#x}")
        idx = addr % self.n_sets
        stack = self.sets[idx]
        evicted = None
        if not self.plru:
            if len(stack) == self.assoc:
                old = stack.pop()
                evicted = _Evicted(old, self.lines.pop(old))
                self._note_victim(old)
        else:
            occupied = 0
            for a in stack:
                occupied |= 1 << self.ways[a]
            free = ((1 << self.assoc) - 1) & ~occupied
            way = _plru_victim(self.bits[idx], self.assoc, free or occupied)
            if not free:
                old = next(a for a in stack if self.ways[a] == way)
                stack.remove(old)
                evicted = _Evicted(old, self.lines.pop(old))
                del self.ways[old]
                self._note_victim(old)
            self.ways[addr] = way
            self.bits[idx] = _plru_touch(self.bits[idx], way, self.assoc)
        stack.insert(0, addr)
        self.lines[addr] = _Line(state, dirty, prefetch)
        return evicted

    def invalidate(self, addr: int) -> Optional[_Evicted]:
        line = self.lines.pop(addr, None)
        if line is None:
            return None
        self.sets[addr % self.n_sets].remove(addr)
        if self.plru:
            del self.ways[addr]  # the frame frees; direction bits keep
        self._note_victim(addr)
        return _Evicted(addr, line)

    def victim_match(self, addr: int) -> bool:
        return addr in self.victims[addr % self.n_sets]

    def set_has_prefetched_line(self, addr: int) -> bool:
        lines = self.lines
        return any(lines[a].prefetch_bit for a in self.sets[addr % self.n_sets])


class _RefL2:
    """Decoupled variable-segment compressed cache (address-keyed).

    Victim tags are modeled as the per-set list of ``(addr, way)`` pairs
    held by the invalid tags, most-recently-retired first; a new line
    claims the *oldest* victim tag (list tail), exactly like the
    simulator's tag-frame pool.  Unused tags start as ``-1``
    placeholders (the simulator's fresh ``TagEntry.addr``) carrying
    their build-order ways ``0..tags_per_set-1``, so the first fill
    claims way ``tags_per_set - 1`` — the same physical placement the
    simulator produces.
    """

    def __init__(
        self,
        n_sets: int,
        tags_per_set: int,
        total_segments: int,
        compressed: bool,
        plru: bool = False,
    ) -> None:
        self.n_sets = n_sets
        self.tags_per_set = tags_per_set
        self.total_segments = total_segments
        self.compressed = compressed
        self.plru = plru
        self.sets: List[List[int]] = [[] for _ in range(n_sets)]  # MRU-first addrs
        self.victims: List[List[Tuple[int, int]]] = [
            [(-1, way) for way in range(tags_per_set)] for _ in range(n_sets)
        ]
        self.used: List[int] = [0] * n_sets
        self.lines: Dict[int, _Line] = {}
        self.bits: List[int] = [0] * n_sets
        self.ways: Dict[int, int] = {}  # resident addr -> physical way

    def touch(self, addr: int) -> None:
        idx = addr % self.n_sets
        stack = self.sets[idx]
        if stack[0] != addr:
            stack.remove(addr)
            stack.insert(0, addr)
        if self.plru:  # unconditional, even when the line was already MRU
            self.bits[idx] = _plru_touch(self.bits[idx], self.ways[addr], self.tags_per_set)

    def stack_depth(self, addr: int) -> int:
        return self.sets[addr % self.n_sets].index(addr)

    def victim_match(self, addr: int) -> bool:
        return any(v[0] == addr for v in self.victims[addr % self.n_sets])

    def set_has_prefetched_line(self, addr: int) -> bool:
        lines = self.lines
        return any(lines[a].prefetch_bit for a in self.sets[addr % self.n_sets])

    def resident_lines(self) -> int:
        return len(self.lines)

    def _retire(self, idx: int, addr: int) -> _Evicted:
        line = self.lines.pop(addr)
        self.used[idx] -= line.segments
        self.victims[idx].insert(0, (addr, self.ways.pop(addr)))
        return _Evicted(addr, line)

    def insert(
        self,
        addr: int,
        segments: int,
        *,
        dirty: bool,
        prefetch: bool,
        sharers: int,
        owner: int,
        state: int,
    ) -> List[_Evicted]:
        if addr in self.lines:
            raise OracleMismatch(f"oracle L2 insert of resident line {addr:#x}")
        if not self.compressed:
            segments = _SEGMENTS_PER_LINE
        idx = addr % self.n_sets
        stack = self.sets[idx]
        victims = self.victims[idx]
        evictions: List[_Evicted] = []
        while self.used[idx] + segments > self.total_segments or not victims:
            if self.plru:
                mask = 0
                for a in stack:
                    mask |= 1 << self.ways[a]
                way = _plru_victim(self.bits[idx], self.tags_per_set, mask)
                old = next(a for a in stack if self.ways[a] == way)
                stack.remove(old)
            else:
                old = stack.pop()
            evictions.append(self._retire(idx, old))
        way = victims.pop()[1]  # claim the oldest victim tag (and its frame)
        self.ways[addr] = way
        stack.insert(0, addr)
        self.used[idx] += segments
        self.lines[addr] = _Line(state, dirty, prefetch, segments, sharers, owner)
        if self.plru:
            self.bits[idx] = _plru_touch(self.bits[idx], way, self.tags_per_set)
        return evictions


class _RefLink:
    """Structural pin-link traffic accounting (bytes/messages/flits only;
    queuing is timing and stays out of the oracle)."""

    def __init__(self, header_bytes: int, compressed: bool) -> None:
        self.header_bytes = header_bytes
        self.compressed = compressed
        self.reset()

    def reset(self) -> None:
        self.messages = 0
        self.data_messages = 0
        self.flits = 0
        self.bytes_total = 0
        self.bytes_data = 0
        self.bytes_header = 0
        self.uncompressed_equiv_bytes = 0

    def send_request(self) -> None:
        nbytes = self.header_bytes
        self.messages += 1
        self.flits += nbytes // self.header_bytes
        self.bytes_total += nbytes
        self.bytes_header += nbytes

    def send_data(self, segments: int) -> None:
        payload = segments * _SEGMENT_BYTES if self.compressed else _LINE_BYTES
        nbytes = self.header_bytes + payload
        self.messages += 1
        self.data_messages += 1
        self.flits += nbytes // self.header_bytes
        self.bytes_total += nbytes
        self.bytes_data += nbytes - self.header_bytes
        self.bytes_header += self.header_bytes
        self.uncompressed_equiv_bytes += self.header_bytes + _LINE_BYTES


class _RefCompressionPolicy:
    """ISCA'04 benefit/cost counter, re-derived from structural events
    (stack depth is pre-touch, so it is fully structural)."""

    def __init__(self, miss_penalty: float, decompression_penalty: float, enabled: bool,
                 saturation: float = 1_000_000.0) -> None:
        self.miss_penalty = miss_penalty
        self.decompression_penalty = decompression_penalty
        self.saturation = saturation
        self.enabled = enabled
        self.counter = 0.0
        self.avoided_miss_events = 0
        self.penalized_hit_events = 0

    def reset_stats(self) -> None:
        self.avoided_miss_events = 0
        self.penalized_hit_events = 0

    def should_compress(self) -> bool:
        return not self.enabled or self.counter >= 0.0

    def on_hit(self, stack_depth: int, uncompressed_assoc: int, compressed: bool) -> None:
        if stack_depth >= uncompressed_assoc:
            self.avoided_miss_events += 1
            delta = self.miss_penalty
        elif compressed:
            self.penalized_hit_events += 1
            delta = -self.decompression_penalty
        else:
            return
        self.counter = max(-self.saturation, min(self.saturation, self.counter + delta))


class _RefCompressionStats:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.samples = 0
        self.lines_held_sum = 0
        self.compressed_lines = 0
        self.uncompressed_lines = 0
        self.segment_sum = 0


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------


class ReferenceHierarchy:
    """Replays a tapped op stream and predicts all structural counters."""

    def __init__(self, config: SystemConfig, values: ValueModel) -> None:
        self.config = config
        self.values = values
        n = config.n_cores
        pf_cfg = config.prefetch
        victim_depth = pf_cfg.l1_victim_tags if pf_cfg.adaptive else 0

        self.l1i = [
            _RefL1(config.l1i.n_sets, config.l1i.assoc, victim_depth,
                   plru=config.l1i.replacement == "plru")
            for _ in range(n)
        ]
        self.l1d = [
            _RefL1(config.l1d.n_sets, config.l1d.assoc, victim_depth,
                   plru=config.l1d.replacement == "plru")
            for _ in range(n)
        ]
        self.l2 = _RefL2(
            config.l2.n_sets,
            config.l2.tags_per_set,
            config.l2.data_segments_per_set,
            config.l2.compressed,
            plru=config.l2.replacement == "plru",
        )
        self.link = _RefLink(config.link.header_bytes, config.link.compressed)
        self.policy = _RefCompressionPolicy(
            miss_penalty=float(config.memory.latency_cycles),
            decompression_penalty=float(config.l2.decompression_cycles),
            enabled=config.l2.compressed and config.l2.adaptive_compression,
        )
        self.compression = _RefCompressionStats()
        self.dram_demand = 0
        self.dram_prefetch = 0
        self._l2_access_count = 0

        # Miss-handling realism.  Whether a fetch coalesced onto an
        # in-flight MSHR entry is timing (taken from the recorded "C"
        # entries); the *consequences* — one fewer DRAM access, no link
        # messages, the in-flight fetch's segment count — are structural
        # and re-derived here.  ``_fetch_segments`` remembers each
        # line's most recent real fetch, which is exactly the in-flight
        # record a coalescing miss rides.
        self._mshr_on = config.memory.mshr_entries is not None
        self._wb_on = bool(config.memory.writeback_buffer)
        self.mshr_allocations = 0
        self.mshr_coalesced = 0
        self.wb_inserted = 0
        self._fetch_segments: Dict[int, int] = {}

        # Stats bundles.  ``prefetch_hits`` holds the merged
        # partial+prefetch first-touch count (the split is timing).
        self.l1i_stats = CacheStats()
        self.l1d_stats = CacheStats()
        self.l2_stats = CacheStats()
        self.pf_stats: Dict[str, PrefetchStats] = {
            "l1i": PrefetchStats(),
            "l1d": PrefetchStats(),
            "l2": PrefetchStats(),
        }

        # Replica prefetch policy instances, wired exactly like the
        # hierarchy wires its own (per-L1 adaptive controllers, one
        # shared L2 controller, per-level shared stats bundles).
        self.l2_adaptive = AdaptiveController(pf_cfg.counter_max, enabled=pf_cfg.adaptive)
        if pf_cfg.kind == "stride":
            make_pf = StridePrefetcher
        elif pf_cfg.kind == "sequential":
            make_pf = SequentialPrefetcher
        elif pf_cfg.kind == "pointer":
            oracle_values = self.values

            def make_pf(level, cfg, adaptive=None, stats=None):
                return PointerChasePrefetcher(
                    level, cfg, adaptive=adaptive, stats=stats, values=oracle_values
                )
        else:
            raise ValueError(f"unknown prefetcher kind {pf_cfg.kind!r}")
        self.pf_l1i = [make_pf("l1", pf_cfg, stats=self.pf_stats["l1i"]) for _ in range(n)]
        self.pf_l1d = [make_pf("l1", pf_cfg, stats=self.pf_stats["l1d"]) for _ in range(n)]
        if pf_cfg.shared_l2:
            shared = make_pf("l2", pf_cfg, adaptive=self.l2_adaptive, stats=self.pf_stats["l2"])
            self.pf_l2 = [shared] * n
        else:
            self.pf_l2 = [
                make_pf("l2", pf_cfg, adaptive=self.l2_adaptive, stats=self.pf_stats["l2"])
                for _ in range(n)
            ]
        self.taxonomy = PrefetchTaxonomy()
        self.stream_buffers = (
            [StreamBufferPool(pf_cfg.stream_buffers, pf_cfg.stream_buffer_depth) for _ in range(n)]
            if pf_cfg.placement == "stream_buffer"
            else None
        )

        self._pf_on = pf_cfg.enabled
        self._adaptive = pf_cfg.adaptive and pf_cfg.enabled
        self._uncompressed_assoc = config.l2.uncompressed_assoc
        self._ops: List = []
        self._pos = 0

    # -- replay driver ------------------------------------------------------

    def replay(self, ops: List) -> None:
        self._ops = ops
        self._pos = 0
        while self._pos < len(ops):
            op = ops[self._pos]
            self._pos += 1
            head = op[0]
            if head == _tap.DEMAND:
                self._demand(op[1], op[2], op[3])
            elif head == _tap.RESET:
                self._reset()
            else:
                raise OracleMismatch(
                    f"op {self._pos - 1}: unconsumed record {op!r} — the simulator "
                    "performed a prefetch attempt or coalesced fetch the oracle "
                    "did not predict"
                )

    def _next_prefetch_op(self, expected: List) -> str:
        """Consume the next record, which must match the predicted
        prefetch attempt; returns the recorded outcome."""
        if self._pos >= len(self._ops):
            raise OracleMismatch(
                f"oracle predicted prefetch attempt {expected!r} but the op stream ended"
            )
        op = self._ops[self._pos]
        if list(op[:-1]) != expected:
            raise OracleMismatch(
                f"op {self._pos}: oracle predicted prefetch attempt {expected!r} "
                f"but the simulator recorded {op!r}"
            )
        self._pos += 1
        return op[-1]

    def _check_outcome(self, op_idx: int, recorded: str, predicted: str) -> None:
        if recorded != predicted:
            raise OracleMismatch(
                f"op {op_idx}: prefetch outcome diverged — simulator recorded "
                f"{recorded!r}, oracle predicts {predicted!r}"
            )

    # -- demand path --------------------------------------------------------

    def _demand(self, core: int, kind: int, addr: int) -> None:
        if kind == IFETCH:
            l1, pf, stats, level = self.l1i[core], self.pf_l1i[core], self.l1i_stats, "l1i"
        else:
            l1, pf, stats, level = self.l1d[core], self.pf_l1d[core], self.l1d_stats, "l1d"
        line = l1.lines.get(addr)
        if line is not None:
            if line.prefetch_bit:
                stats.prefetch_hits += 1  # merged partial+prefetch count
                pf.stats.useful += 1
                pf.adaptive.on_useful()
                self.taxonomy.on_used(level)
                line.prefetch_bit = False
            stats.demand_hits += 1
            l1.touch(addr)
            if self._pf_on:
                for p in pf.observe_hit(addr):
                    self._consume_l1_prefetch(core, kind, p)
            if kind == STORE:
                # Re-probe: a prefetch issued above can have evicted the
                # line (L2 eviction back-invalidates the L1 copy).
                line = l1.lines.get(addr)
                if line is not None:
                    if line.state == _SHARED:
                        self._upgrade(core, addr)
                        line.state = _MODIFIED
                        stats.upgrades += 1
                    line.dirty = True
            return

        # L1 miss.
        stats.demand_misses += 1
        if self._adaptive and l1.victim_match(addr) and l1.set_has_prefetched_line(addr):
            pf.stats.harmful += 1
            pf.adaptive.on_harmful()
            self.taxonomy.on_victim_live(level)
        store = kind == STORE
        self._l2_access(core, addr, store=store, demand=True)
        # Mirror the simulator's inclusion guard: skip the L1 fill when a
        # nested L2 prefetch evicted the line from the L2 again.
        if addr in self.l2.lines:
            ev = l1.insert(addr, _MODIFIED if store else _SHARED, dirty=store, prefetch=False)
            if ev is not None:
                self._handle_l1_eviction(core, ev, pf, stats, level)
        if self._pf_on:
            for p in pf.observe_miss(addr):
                self._consume_l1_prefetch(core, kind, p)

    def _handle_l1_eviction(self, core, ev: _Evicted, pf, stats: CacheStats, level: str) -> None:
        stats.evictions += 1
        if ev.prefetch_untouched:
            pf.stats.useless += 1
            pf.adaptive.on_useless()
            self.taxonomy.on_evicted_unused(level)
        l2line = self.l2.lines.get(ev.addr)
        if l2line is not None:
            l2line.sharers &= ~(1 << core)
            if l2line.owner == core:
                l2line.owner = -1
            if ev.dirty:
                l2line.dirty = True
                stats.writebacks += 1
        elif ev.dirty:
            self.link.send_data(self.values.segments_for(ev.addr))
            stats.writebacks += 1
            self.wb_inserted += 1

    def _upgrade(self, core: int, addr: int) -> None:
        l2line = self.l2.lines.get(addr)
        if l2line is None:  # lost to an L2 eviction race
            return
        self._invalidate_other_sharers(l2line, addr, core)
        l2line.sharers = 1 << core
        l2line.owner = core
        l2line.dirty = True

    # -- L2 path ------------------------------------------------------------

    def _l2_access(
        self,
        core: int,
        addr: int,
        *,
        store: bool,
        demand: bool,
        prefetch: bool = False,
        from_l1_prefetch: bool = False,
    ) -> None:
        self._l2_access_count += 1
        if not self._l2_access_count % _SAMPLE_EVERY:
            self.compression.samples += 1
            self.compression.lines_held_sum += self.l2.resident_lines()

        l2 = self.l2
        l2s = self.l2_stats
        line = l2.lines.get(addr)
        pf2 = self.pf_l2[core]

        if line is not None:
            line_compressed = l2.compressed and line.segments < _SEGMENTS_PER_LINE
            if line_compressed:
                l2s.compressed_hits += 1
            if self.policy.enabled:
                self.policy.on_hit(l2.stack_depth(addr), self._uncompressed_assoc, line_compressed)
            first_access = demand or from_l1_prefetch
            if first_access:
                if demand:
                    l2s.demand_hits += 1
                if line.prefetch_bit:
                    l2s.prefetch_hits += 1  # merged partial+prefetch count
                    self.pf_stats["l2"].useful += 1
                    self.l2_adaptive.on_useful()
                    self.taxonomy.on_used("l2")
                line.prefetch_bit = False
            l2.touch(addr)
            if store:
                self._invalidate_other_sharers(line, addr, core)
                line.sharers = 1 << core
                line.owner = core
                line.dirty = True
            elif line.owner not in (-1, core):
                self._downgrade_owner(line, addr)
            if demand or from_l1_prefetch:
                line.sharers |= 1 << core
            if demand and self._pf_on:
                for p in pf2.observe_hit(addr):
                    self._consume_l2_prefetch(core, p)
            return

        # L2 miss.
        if self.stream_buffers is not None and (demand or from_l1_prefetch):
            entry = self.stream_buffers[core].take(addr)
            if entry is not None:
                if demand:
                    l2s.prefetch_hits += 1
                    self.pf_stats["l2"].useful += 1
                    self.l2_adaptive.on_useful()
                    self.taxonomy.on_used("l2")
                self._fill_l2(core, addr, entry.segments, store, demand, False, from_l1_prefetch)
                if demand:
                    for p in self.pf_l2[core].observe_hit(addr):
                        self._consume_l2_prefetch(core, p)
                return
        if demand:
            l2s.demand_misses += 1
            if self._pf_on and l2.victim_match(addr) and l2.set_has_prefetched_line(addr):
                self.taxonomy.on_victim_live("l2")
                if self._adaptive:
                    self.pf_stats["l2"].harmful += 1
                    self.l2_adaptive.on_harmful()
        segments = self._fetch_line(core, demand, addr)
        self._fill_l2(core, addr, segments, store, demand, prefetch, from_l1_prefetch)
        if (demand or from_l1_prefetch) and self._pf_on:
            for p in pf2.observe_miss(addr):
                self._consume_l2_prefetch(core, p)

    def _fetch_line(self, core: int, demand: bool, addr: int) -> int:
        if self._mshr_on and self._pos < len(self._ops):
            op = self._ops[self._pos]
            if op[0] == _tap.COALESCE:
                if op[1] != addr:
                    raise OracleMismatch(
                        f"op {self._pos}: simulator coalesced fetch of "
                        f"{op[1]:#x} where the oracle fetches {addr:#x}"
                    )
                self._pos += 1
                self.mshr_coalesced += 1
                segments = self._fetch_segments.get(addr)
                if segments is None:
                    raise OracleMismatch(
                        f"op {self._pos - 1}: coalesced fetch of {addr:#x} "
                        "but the oracle never saw a real fetch of that line"
                    )
                return segments  # rides the in-flight entry: no traffic
        segments = self.values.segments_for(addr)
        if self.policy.enabled and not self.policy.should_compress():
            segments = _SEGMENTS_PER_LINE
        self.link.send_request()
        if demand:
            self.dram_demand += 1
        else:
            self.dram_prefetch += 1
        self.link.send_data(segments)
        if self._mshr_on:
            self.mshr_allocations += 1
            self._fetch_segments[addr] = segments
        return segments

    def _fill_l2(
        self, core, addr, segments, store, demand, prefetch, from_l1_prefetch
    ) -> None:
        sharers = (1 << core) if (demand or from_l1_prefetch) else 0
        owner = core if store else -1
        state = _MODIFIED if store else _SHARED
        if segments < _SEGMENTS_PER_LINE:
            self.compression.compressed_lines += 1
        else:
            self.compression.uncompressed_lines += 1
        self.compression.segment_sum += segments
        evictions = self.l2.insert(
            addr,
            segments,
            dirty=store,
            prefetch=prefetch and not from_l1_prefetch,
            sharers=sharers,
            owner=owner,
            state=state,
        )
        for ev in evictions:
            self._handle_l2_eviction(ev)

    def _handle_l2_eviction(self, ev: _Evicted) -> None:
        self.l2_stats.evictions += 1
        if ev.prefetch_untouched:
            self.pf_stats["l2"].useless += 1
            self.l2_adaptive.on_useless()
            self.taxonomy.on_evicted_unused("l2")
        dirty = ev.dirty
        sharers = ev.sharers
        core = 0
        while sharers:
            if sharers & 1:
                for l1, pf, stats, level in (
                    (self.l1i[core], self.pf_l1i[core], self.l1i_stats, "l1i"),
                    (self.l1d[core], self.pf_l1d[core], self.l1d_stats, "l1d"),
                ):
                    l1ev = l1.invalidate(ev.addr)
                    if l1ev is not None:
                        stats.coherence_invalidations += 1
                        dirty = dirty or l1ev.dirty
                        if l1ev.prefetch_untouched:
                            pf.stats.useless += 1
                            pf.adaptive.on_useless()
                            self.taxonomy.on_evicted_unused(level)
            sharers >>= 1
            core += 1
        if dirty:
            self.l2_stats.writebacks += 1
            self.link.send_data(self.values.segments_for(ev.addr))
            self.wb_inserted += 1

    # -- coherence helpers --------------------------------------------------

    def _invalidate_other_sharers(self, l2line: _Line, addr: int, core: int) -> None:
        sharers = l2line.sharers & ~(1 << core)
        other = 0
        while sharers:
            if sharers & 1:
                for l1, stats in (
                    (self.l1i[other], self.l1i_stats),
                    (self.l1d[other], self.l1d_stats),
                ):
                    l1ev = l1.invalidate(addr)
                    if l1ev is not None:
                        stats.coherence_invalidations += 1
                        if l1ev.dirty:
                            l2line.dirty = True
                l2line.sharers &= ~(1 << other)
                if l2line.owner == other:
                    l2line.owner = -1
            sharers >>= 1
            other += 1

    def _downgrade_owner(self, l2line: _Line, addr: int) -> None:
        owner = l2line.owner
        for l1 in (self.l1i[owner], self.l1d[owner]):
            line = l1.lines.get(addr)
            if line is not None and line.state == _MODIFIED:
                line.state = _SHARED
                line.dirty = False
                l2line.dirty = True
        l2line.owner = -1

    # -- prefetch issue (consuming the recorded attempts) -------------------

    def _consume_l1_prefetch(self, core: int, kind: int, addr: int) -> None:
        op_idx = self._pos
        outcome = self._next_prefetch_op([_tap.L1_PREFETCH, core, kind, addr])
        if addr < 0:
            self._check_outcome(op_idx, outcome, _tap.SKIPPED)
            return
        if kind == IFETCH:
            l1, pf, stats, level = self.l1i[core], self.pf_l1i[core], self.l1i_stats, "l1i"
        else:
            l1, pf, stats, level = self.l1d[core], self.pf_l1d[core], self.l1d_stats, "l1d"
        if addr in l1.lines:
            self._check_outcome(op_idx, outcome, _tap.SKIPPED)
            return
        if addr not in self.l2.lines:
            # DRAM-gated: issued-vs-dropped is the one timing-dependent
            # decision — take it from the record (but "skipped" here
            # would mean structural divergence).
            if outcome == _tap.DROPPED:
                pf.stats.dropped += 1
                return
            self._check_outcome(op_idx, outcome, _tap.ISSUED)
        else:
            self._check_outcome(op_idx, outcome, _tap.ISSUED)
        pf.stats.issued += 1
        self.taxonomy.on_issued(level)
        self._l2_access(core, addr, store=False, demand=False, prefetch=True, from_l1_prefetch=True)
        # Mirror the simulator's inclusion guard (see _demand).
        if addr in self.l2.lines:
            ev = l1.insert(addr, _SHARED, dirty=False, prefetch=True)
            if ev is not None:
                self._handle_l1_eviction(core, ev, pf, stats, level)

    def _consume_l2_prefetch(self, core: int, addr: int) -> None:
        op_idx = self._pos
        outcome = self._next_prefetch_op([_tap.L2_PREFETCH, core, addr])
        if addr < 0:
            self._check_outcome(op_idx, outcome, _tap.SKIPPED)
            return
        if addr in self.l2.lines:
            self._check_outcome(op_idx, outcome, _tap.SKIPPED)
            return
        if self.stream_buffers is not None and self.stream_buffers[core].contains(addr):
            self._check_outcome(op_idx, outcome, _tap.SKIPPED)
            return
        if outcome == _tap.DROPPED:
            self.pf_stats["l2"].dropped += 1
            return
        self._check_outcome(op_idx, outcome, _tap.ISSUED)
        self.pf_stats["l2"].issued += 1
        self.taxonomy.on_issued("l2")
        if self.stream_buffers is not None:
            segments = self._fetch_line(core, False, addr)
            self.stream_buffers[core].insert(addr, 0.0, segments)
            return
        self._l2_access(core, addr, store=False, demand=False, prefetch=True)

    # -- reset --------------------------------------------------------------

    def _reset(self) -> None:
        self.l1i_stats = CacheStats()
        self.l1d_stats = CacheStats()
        self.l2_stats = CacheStats()
        for key in self.pf_stats:
            self.pf_stats[key] = PrefetchStats()
        for group, key in ((self.pf_l1i, "l1i"), (self.pf_l1d, "l1d"), (self.pf_l2, "l2")):
            for p in group:
                p.stats = self.pf_stats[key]
        self.link.reset()
        self.taxonomy = PrefetchTaxonomy()
        if self.stream_buffers is not None:
            for pool in self.stream_buffers:
                pool.hits = pool.insertions = pool.overflows = 0
        self.compression.reset()
        self.dram_demand = 0
        self.dram_prefetch = 0
        self._l2_access_count = 0
        self.policy.reset_stats()
        # MSHR/WB measurement counters reset; _fetch_segments is machine
        # state (in-flight fetch memory) and survives, like the caches.
        self.mshr_allocations = 0
        self.mshr_coalesced = 0
        self.wb_inserted = 0

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------

    #: CacheStats fields compared one-to-one (the partial/prefetch pair
    #: is compared as a sum instead).
    _CACHE_FIELDS = (
        "demand_hits",
        "demand_misses",
        "compressed_hits",
        "writebacks",
        "evictions",
        "upgrades",
        "coherence_invalidations",
    )
    _PF_FIELDS = (
        "issued", "dropped", "useful", "useless", "harmful", "streams_allocated", "throttled",
    )
    _LINK_FIELDS = (
        "messages", "data_messages", "flits", "bytes_total", "bytes_data",
        "bytes_header", "uncompressed_equiv_bytes",
    )
    _TAXONOMY_FIELDS = ("useful", "useful_polluting", "useless", "harmful", "issued")

    def compare(self, hierarchy) -> List[str]:
        """Field-by-field comparison against a live hierarchy; returns a
        list of human-readable divergences (empty = exact agreement)."""
        problems: List[str] = []

        def diff(path: str, sim, ref) -> None:
            if sim != ref:
                problems.append(f"{path}: simulator {sim!r} != oracle {ref!r}")

        for level, sim_stats, ref_stats in (
            ("l1i", hierarchy.l1i_stats, self.l1i_stats),
            ("l1d", hierarchy.l1d_stats, self.l1d_stats),
            ("l2", hierarchy.l2_stats, self.l2_stats),
        ):
            for f in self._CACHE_FIELDS:
                diff(f"{level}.{f}", getattr(sim_stats, f), getattr(ref_stats, f))
            diff(
                f"{level}.partial_hits+prefetch_hits",
                sim_stats.partial_hits + sim_stats.prefetch_hits,
                ref_stats.prefetch_hits,
            )

        for level in ("l1i", "l1d", "l2"):
            for f in self._PF_FIELDS:
                diff(
                    f"prefetch.{level}.{f}",
                    getattr(hierarchy.pf_stats[level], f),
                    getattr(self.pf_stats[level], f),
                )
            sim_tax = hierarchy.taxonomy.level(level)
            ref_tax = self.taxonomy.level(level)
            for f in self._TAXONOMY_FIELDS:
                diff(f"taxonomy.{level}.{f}", getattr(sim_tax, f), getattr(ref_tax, f))

        for f in self._LINK_FIELDS:
            diff(f"link.{f}", getattr(hierarchy.link.stats, f), getattr(self.link, f))

        diff("dram.demand_requests", hierarchy.dram.demand_requests, self.dram_demand)
        diff("dram.prefetch_requests", hierarchy.dram.prefetch_requests, self.dram_prefetch)

        # Miss-handling realism counters (stalls and occupancy peaks are
        # timing; allocations / coalesced fills / write-back insertions
        # are structural once the recorded "C" entries are taken as
        # given — every coalesce must be matched by one fewer fetch).
        if hierarchy.mshr is not None:
            diff("mshr.allocations", hierarchy.mshr.allocations, self.mshr_allocations)
            diff("mshr.coalesced", hierarchy.mshr.coalesced, self.mshr_coalesced)
        if hierarchy.wb is not None:
            diff("wb.inserted", hierarchy.wb.inserted, self.wb_inserted)

        sim_comp = hierarchy.compression_stats
        diff("compression.samples", sim_comp.samples, self.compression.samples)
        diff("compression.lines_held_sum", sim_comp.lines_held_sum, self.compression.lines_held_sum)
        diff("compression.compressed_lines", sim_comp.compressed_lines, self.compression.compressed_lines)
        diff(
            "compression.uncompressed_lines",
            sim_comp.uncompressed_lines,
            self.compression.uncompressed_lines,
        )
        diff("compression.segment_sum", sim_comp.segment_sum, self.compression.segment_sum)

        diff("l2_adaptive.counter", hierarchy.l2_adaptive.counter, self.l2_adaptive.counter)
        for f in ("useful_events", "useless_events", "harmful_events"):
            diff(f"l2_adaptive.{f}", getattr(hierarchy.l2_adaptive, f), getattr(self.l2_adaptive, f))

        sim_policy = hierarchy.compression_policy
        diff("compression_policy.counter", sim_policy.counter, self.policy.counter)
        diff(
            "compression_policy.avoided_miss_events",
            sim_policy.avoided_miss_events,
            self.policy.avoided_miss_events,
        )
        diff(
            "compression_policy.penalized_hit_events",
            sim_policy.penalized_hit_events,
            self.policy.penalized_hit_events,
        )

        for core in range(self.config.n_cores):
            for side, sim_group, ref_group in (
                ("l1i", hierarchy.pf_l1i, self.pf_l1i),
                ("l1d", hierarchy.pf_l1d, self.pf_l1d),
            ):
                diff(
                    f"adaptive.{side}[{core}].counter",
                    sim_group[core].adaptive.counter,
                    ref_group[core].adaptive.counter,
                )

        if self.stream_buffers is not None:
            for core, (sim_pool, ref_pool) in enumerate(
                zip(hierarchy.stream_buffers, self.stream_buffers)
            ):
                for f in ("hits", "insertions", "overflows"):
                    diff(f"stream_buffer[{core}].{f}", getattr(sim_pool, f), getattr(ref_pool, f))
                diff(
                    f"stream_buffer[{core}].contents",
                    [(a, e.segments) for a, e in sim_pool._entries.items()],
                    [(a, e.segments) for a, e in ref_pool._entries.items()],
                )

        problems.extend(self._compare_state(hierarchy))
        return problems

    def _compare_state(self, hierarchy) -> List[str]:
        """Final machine state: LRU orders, line metadata, victim tags,
        segment accounting."""
        problems: List[str] = []

        def diff(path: str, sim, ref) -> None:
            if sim != ref:
                problems.append(f"{path}: simulator {sim!r} != oracle {ref!r}")

        for core in range(self.config.n_cores):
            for label, sim_cache, ref_cache in (
                ("l1i", hierarchy.l1i[core], self.l1i[core]),
                ("l1d", hierarchy.l1d[core], self.l1d[core]),
            ):
                for idx, stack in enumerate(sim_cache._sets):
                    sim_lines = [
                        (e.addr, e.state, e.dirty, e.prefetch_bit) for e in stack if e.valid
                    ]
                    ref_lines = [
                        (a, ref_cache.lines[a].state, ref_cache.lines[a].dirty,
                         ref_cache.lines[a].prefetch_bit)
                        for a in ref_cache.sets[idx]
                    ]
                    diff(f"state.{label}[{core}].set[{idx}]", sim_lines, ref_lines)
                if ref_cache.victim_depth:
                    for idx, victims in enumerate(sim_cache._victims):
                        diff(
                            f"state.{label}[{core}].victims[{idx}]",
                            victims,
                            ref_cache.victims[idx],
                        )
                if ref_cache.plru:
                    diff(
                        f"state.{label}[{core}].plru_bits",
                        sim_cache._plru,
                        ref_cache.bits,
                    )

        l2 = hierarchy.l2
        for idx, cset in enumerate(l2._sets):
            sim_lines = [
                (e.addr, e.state, e.dirty, e.prefetch_bit, e.segments, e.sharers, e.owner)
                for e in cset.valid_stack
            ]
            ref_lines = []
            for a in self.l2.sets[idx]:
                line = self.l2.lines[a]
                ref_lines.append(
                    (a, line.state, line.dirty, line.prefetch_bit, line.segments,
                     line.sharers, line.owner)
                )
            diff(f"state.l2.set[{idx}]", sim_lines, ref_lines)
            diff(
                f"state.l2.victims[{idx}]",
                cset.victim_tags(),
                self.l2.victims[idx],
            )
            diff(f"state.l2.used_segments[{idx}]", cset.used_segments, self.l2.used[idx])
        if self.l2.plru:
            diff("state.l2.plru_bits", l2._plru, self.l2.bits)
        return problems


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def verify_system(
    system,
    events_per_core: int,
    warmup_events: Optional[int] = None,
    config_name: Optional[str] = None,
    raise_on_failure: bool = True,
) -> Tuple[object, List[str]]:
    """Run a :class:`CMPSystem` with the op tap installed, replay the
    stream through the reference hierarchy, and compare.

    Returns ``(SimulationResult, problems)``; raises
    :class:`OracleMismatch` on divergence when ``raise_on_failure``.
    """
    tap = _tap.OpTap(system.hierarchy)
    tap.install()
    try:
        result = system.run(events_per_core, warmup_events=warmup_events, config_name=config_name)
    finally:
        tap.uninstall()
    ref = ReferenceHierarchy(system.config, system.values)
    ref.replay(tap.ops)
    problems = ref.compare(system.hierarchy)
    if problems and raise_on_failure:
        shown = "\n  ".join(problems[:40])
        more = f"\n  ... and {len(problems) - 40} more" if len(problems) > 40 else ""
        raise OracleMismatch(
            f"{len(problems)} divergence(s) between simulator and oracle:\n  {shown}{more}"
        )
    return result, problems
