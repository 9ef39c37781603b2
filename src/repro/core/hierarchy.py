"""The CMP memory hierarchy: the full access path of Figure 2.

Private L1 I/D caches per core, an 8-banked shared inclusive L2 (plain or
compressed), an MSI directory in the L2 tags, per-core L1I/L1D/L2 stride
prefetchers, the shared pin link, and DRAM.  This module owns every
latency and every stats increment; the simulator above it only advances
core clocks and the policy objects below it only make decisions.

Timing conventions:

* All latencies are returned relative to the access's issue time ``now``.
* Prefetches are inserted into the target cache *immediately* with a
  future ``fill_time``; a demand access arriving earlier waits out the
  remaining latency (a partial hit).  This models prefetch timeliness
  and pollution without a global event queue.
* Shared resources (L2 banks, pin link, DRAM slots) use busy-until
  queuing, which is where prefetching's extra traffic turns into the
  demand-miss queuing delays the paper measures.
"""

from __future__ import annotations

from heapq import heappop
from typing import Dict, Tuple

from repro.cache.compressed import CompressedSetCache
from repro.cache.line import MSIState
from repro.cache.plru import plru_touch
from repro.cache.set_assoc import Eviction, SetAssocCache
from repro.coherence.directory import Directory
from repro.compression.policy import AdaptiveCompressionPolicy
from repro.interconnect.link import PinLink
from repro.interconnect.noc import OnChipNetwork
from repro.memory.dram import DRAM
from repro.memory.mshr import MSHRFile, WriteBackBuffer
from repro.params import SEGMENTS_PER_LINE, SystemConfig
from repro.prefetch.adaptive import AdaptiveController
from repro.prefetch.pointer import PointerChasePrefetcher
from repro.prefetch.sequential import SequentialPrefetcher
from repro.prefetch.stream_buffer import StreamBufferPool
from repro.prefetch.stride import StridePrefetcher
from repro.prefetch.taxonomy import PrefetchTaxonomy
from repro.stats.histogram import LatencyHistogram
from repro.stats.counters import CacheStats, CompressionStats, PrefetchStats
from repro.workloads.base import IFETCH, STORE
from repro.workloads.values import ValueModel

_BANK_OCCUPANCY = 2  # cycles an L2 bank is busy per access
_INTERVENTION_COST = 10  # extra cycles for dirty-owner intervention / invalidations
_SAMPLE_EVERY = 512  # L2 accesses between effective-size samples


class MemoryHierarchy:
    def __init__(self, config: SystemConfig, values: ValueModel) -> None:
        self.config = config
        self.values = values
        n = config.n_cores
        pf_cfg = config.prefetch
        victim_depth = pf_cfg.l1_victim_tags if pf_cfg.adaptive else 0

        self.l1i = [SetAssocCache(config.l1i, victim_depth) for _ in range(n)]
        self.l1d = [SetAssocCache(config.l1d, victim_depth) for _ in range(n)]
        self.l2 = CompressedSetCache(config.l2)
        self.directory = Directory(n)
        self.link = PinLink(config.link, config.clock_ghz)
        self.noc = OnChipNetwork(n, config.onchip_bandwidth_gbs, config.clock_ghz)
        self.dram = DRAM(config.memory, n)
        # Miss-handling realism knobs (both default off, preserving the
        # legacy DRAM slot-pool model bit for bit).
        self.mshr = (
            MSHRFile(config.memory.mshr_entries, n)
            if config.memory.mshr_entries is not None
            else None
        )
        self.wb = (
            WriteBackBuffer(config.memory.writeback_buffer)
            if config.memory.writeback_buffer
            else None
        )

        # Stats are aggregated per level (Table 4's granularity).
        self.l1i_stats = CacheStats()
        self.l1d_stats = CacheStats()
        self.l2_stats = CacheStats()
        self.pf_stats: Dict[str, PrefetchStats] = {
            "l1i": PrefetchStats(),
            "l1d": PrefetchStats(),
            "l2": PrefetchStats(),
        }
        self.compression_stats = CompressionStats()
        self.compression_stats.capacity_lines = self.l2.uncompressed_capacity_lines

        # Adaptive throttles: one per L1 cache, ONE shared for the L2.
        self.l2_adaptive = AdaptiveController(pf_cfg.counter_max, enabled=pf_cfg.adaptive)
        if pf_cfg.kind == "stride":
            make_pf = StridePrefetcher
        elif pf_cfg.kind == "sequential":
            make_pf = SequentialPrefetcher
        elif pf_cfg.kind == "pointer":
            hierarchy_values = self.values

            def make_pf(level, cfg, adaptive=None, stats=None):
                return PointerChasePrefetcher(
                    level, cfg, adaptive=adaptive, stats=stats, values=hierarchy_values
                )
        else:
            raise ValueError(f"unknown prefetcher kind {pf_cfg.kind!r}")
        self.pf_l1i = [
            make_pf("l1", pf_cfg, stats=self.pf_stats["l1i"]) for _ in range(n)
        ]
        self.pf_l1d = [
            make_pf("l1", pf_cfg, stats=self.pf_stats["l1d"]) for _ in range(n)
        ]
        if pf_cfg.shared_l2:
            shared = make_pf("l2", pf_cfg, adaptive=self.l2_adaptive, stats=self.pf_stats["l2"])
            self.pf_l2 = [shared] * n
        else:
            self.pf_l2 = [
                make_pf("l2", pf_cfg, adaptive=self.l2_adaptive, stats=self.pf_stats["l2"])
                for _ in range(n)
            ]
        self.taxonomy = PrefetchTaxonomy()

        if pf_cfg.placement not in ("cache", "stream_buffer"):
            raise ValueError(f"unknown prefetch placement {pf_cfg.placement!r}")
        self.stream_buffers = (
            [StreamBufferPool(pf_cfg.stream_buffers, pf_cfg.stream_buffer_depth) for _ in range(n)]
            if pf_cfg.placement == "stream_buffer"
            else None
        )
        self.latency_hist: Dict[str, LatencyHistogram] = {
            "l1i": LatencyHistogram(),
            "l1d": LatencyHistogram(),
            "l2_miss": LatencyHistogram(),
        }
        self._bank_free = [0.0] * config.l2.n_banks
        self._l2_access_count = 0
        self._adaptive = pf_cfg.adaptive and pf_cfg.enabled
        # The one observer reference (repro.obs.observers): None keeps
        # every event site down to one ``is not None`` branch.  Observers
        # are strictly read-only, so results are bit-identical with any
        # of them on or off.
        self.observer = None
        # Hot-path scalars: the access path runs once per trace event, so
        # repeated ``self.config.*`` attribute chains are hoisted here.
        self._l1i_lat = float(config.l1i.hit_latency)
        self._l1d_lat = float(config.l1d.hit_latency)
        self._l2_hit_lat = float(config.l2.hit_latency)
        self._decompression_cycles = config.l2.decompression_cycles
        self._n_banks = config.l2.n_banks
        self._pf_on = pf_cfg.enabled
        self._noc_on = self.noc.enabled
        self._rebuild_routes()
        # ISCA'04 adaptive compression: benefit/cost counter deciding
        # whether newly-filled compressible lines are stored compressed.
        self.compression_policy = AdaptiveCompressionPolicy(
            miss_penalty=float(config.memory.latency_cycles),
            decompression_penalty=float(config.l2.decompression_cycles),
            enabled=config.l2.compressed and config.l2.adaptive_compression,
        )

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    def observe(self, observer) -> None:
        """Give every emitting component the one observer reference
        (:class:`repro.obs.observers.Observers`) and name the adaptive
        throttles whose feedback events it receives."""
        for part in (self, self.link, self.noc, self.dram, self.compression_policy):
            part.observer = observer
        self.l2_adaptive.observer, self.l2_adaptive.name = observer, "l2"
        for core, (pfi, pfd) in enumerate(zip(self.pf_l1i, self.pf_l1d)):
            pfi.adaptive.observer, pfi.adaptive.name = observer, f"l1i.core{core}"
            pfd.adaptive.observer, pfd.adaptive.name = observer, f"l1d.core{core}"

    def _rebuild_routes(self) -> None:
        """Precompute per-(core, kind) routing tuples for the access path.

        Each tuple is ``(l1, pf, stats, hist, fill_latency, level, tax)``
        (``tax``: the level's ``TaxonomyCounts``).  :meth:`reset_stats`
        rebuilds them.
        """
        hist_i = self.latency_hist["l1i"]
        hist_d = self.latency_hist["l1d"]
        tax = self.taxonomy
        self._route_i = [
            (l1, pf, self.l1i_stats, hist_i, self._l1i_lat, "l1i", tax.level("l1i"))
            for l1, pf in zip(self.l1i, self.pf_l1i)
        ]
        self._route_d = [
            (l1, pf, self.l1d_stats, hist_d, self._l1d_lat, "l1d", tax.level("l1d"))
            for l1, pf in zip(self.l1d, self.pf_l1d)
        ]
        self._pf2_stats = self.pf_stats["l2"]
        self._tax_l2 = tax.level("l2")
        self._l2_miss_hist = self.latency_hist["l2_miss"]

    def access(self, core: int, kind: int, addr: int, now: float) -> Tuple[float, bool]:
        """Perform one demand access; returns (latency, l1_hit).

        The whole access runs in this one frame: the L1 hit (the most
        common event), or the L1 miss, the shared-L2 access (a hit, or
        the default-model fetch: request pins -> DRAM -> data pins -> L2
        fill and its evictions) and the L1 refill.  Every optional
        mechanism keeps one guard and its own helper: the MSHR file
        (``_fetch_line``), the write-back buffer (``_send_writeback``),
        tree-PLRU, stream buffers, adaptive compression, the NoC and the
        observer.
        """
        route = self._route_i[core] if kind == IFETCH else self._route_d[core]
        observer = self.observer
        if observer is not None:
            # Stamp the issue time for the clock-less events (throttle
            # feedback, compression phase flips, miss classes) fired
            # anywhere in this access's dynamic extent.
            observer.now = now
        l1, pf, stats = route[0], route[1], route[2]
        entry = l1._map.get(addr)  # SetAssocCache.probe, inlined
        if entry is not None and entry.valid:
            latency = 0.0
            pure_hit = True
            if entry.fill_time > now:
                latency = entry.fill_time - now
                pure_hit = False
                if entry.prefetch_bit:
                    stats.partial_hits += 1
                    pf.stats.useful += 1
                    pf.adaptive.on_useful()
                    route[6].useful += 1
                    entry.prefetch_bit = False
            elif entry.prefetch_bit:
                stats.prefetch_hits += 1
                pf.stats.useful += 1
                pf.adaptive.on_useful()
                route[6].useful += 1
                entry.prefetch_bit = False
            stats.demand_hits += 1
            # SetAssocCache.touch, inlined.
            stack = l1._sets[addr % l1.n_sets]
            if stack[0] is not entry:
                stack.remove(entry)
                stack.insert(0, entry)
            plru = l1._plru
            if plru is not None:
                si = addr % l1.n_sets
                plru[si] = plru_touch(plru[si], entry.way, l1.assoc)
            if self._pf_on:
                for p in pf.observe_hit(addr):
                    self._issue_l1_prefetch(core, kind, p, now)
            if kind == STORE and entry.valid and entry.addr == addr:
                # The addr/valid re-check guards a rare aliasing corner:
                # a prefetch issued by the observe_hit loop above can
                # evict this line from the L2, back-invalidating the L1
                # copy and possibly reusing its tag frame for another
                # line; writing through the stale frame would corrupt it.
                if entry.state == MSIState.SHARED:
                    latency += self._upgrade(core, addr, now)
                    entry.state = MSIState.MODIFIED
                    stats.upgrades += 1
                entry.dirty = True
            result = (latency, pure_hit)
        else:
            stats.demand_misses += 1
            if self._adaptive and l1.victim_match(addr) and l1.set_has_prefetched_line(addr):
                pf.stats.harmful += 1
                pf.adaptive.on_harmful()
                self.taxonomy.on_victim_live(route[5])
            store = kind == STORE

            # ---- shared L2: bank occupancy (busy-until), then hit or miss ----
            self._l2_access_count += 1
            l2 = self.l2
            if not self._l2_access_count % _SAMPLE_EVERY:
                self.compression_stats.record_sample(l2.resident_lines())
            bank = addr % self._n_banks  # CompressedSetCache.bank_of, inlined
            start = self._bank_free[bank]
            if start < now:
                start = now
            self._bank_free[bank] = start + _BANK_OCCUPANCY
            bank_delay = start - now
            if observer is not None:
                observer.bank_busy(bank, start, _BANK_OCCUPANCY)
            l2s = self.l2_stats
            l2map = l2._map
            entry = l2map.get(addr)  # CompressedSetCache.probe, inlined
            if entry is not None and entry.valid:
                latency = bank_delay + self._l2_hit_lat
                line_compressed = l2.compressed and entry.segments < SEGMENTS_PER_LINE
                if line_compressed:
                    latency += self._decompression_cycles
                    l2s.compressed_hits += 1
                cp = self.compression_policy
                if cp.enabled:
                    cp.on_hit(
                        l2.stack_depth(addr), self.config.l2.uncompressed_assoc, line_compressed
                    )
                if observer is not None:
                    # Before the LRU touch below: attribution reads the depth.
                    observer.l2_demand_hit(addr, entry.fill_time > now)
                wait = entry.fill_time - now
                if wait > latency:
                    latency = wait
                if entry.prefetch_bit:
                    # First use of a line an L2 prefetch brought in.
                    if wait > 0:
                        l2s.partial_hits += 1
                    else:
                        l2s.prefetch_hits += 1
                    self._pf2_stats.useful += 1
                    self.l2_adaptive.on_useful()
                    self._tax_l2.useful += 1
                    entry.prefetch_bit = False
                l2s.demand_hits += 1
                # CompressedSetCache.touch, inlined.
                stack = l2._sets[addr % l2.n_sets].valid_stack
                if stack[0] is not entry:
                    stack.remove(entry)
                    stack.insert(0, entry)
                plru = l2._plru
                if plru is not None:
                    si = addr % l2.n_sets
                    plru[si] = plru_touch(plru[si], entry.way, l2.tags_per_set)
                if store:
                    latency += self._invalidate_other_sharers(entry, core)
                    self.directory.set_owner(entry, core)
                    entry.dirty = True
                elif entry.owner not in (-1, core):
                    # Dirty intervention: the owning L1 supplies the data.
                    self._downgrade_owner(entry)
                    latency += _INTERVENTION_COST
                entry.sharers |= 1 << core  # Directory.add_sharer, inlined
                if self._pf_on:
                    for p in self.pf_l2[core].observe_hit(addr):
                        self._issue_l2_prefetch(core, p, now)
            else:
                sb_hit = None
                if self.stream_buffers is not None:
                    sb_hit = self._stream_buffer_hit(core, addr, now, bank_delay, True)
                if sb_hit is None:
                    l2s.demand_misses += 1
                    if observer is not None:
                        observer.l2_demand_miss(addr)
                    if self._pf_on and l2.victim_match(addr) and l2.set_has_prefetched_line(addr):
                        self.taxonomy.on_victim_live("l2")
                        if self._adaptive:
                            self._pf2_stats.harmful += 1
                            self.l2_adaptive.on_harmful()
                    request_ready = now + bank_delay + self._l2_hit_lat
                    if self.mshr is not None:
                        data_done, segments = self._fetch_line(core, addr, request_ready, True)
                    else:
                        # _fetch_line's default model: request pins -> DRAM -> data pins.
                        segments = self.values.segments_for(addr)
                        cp = self.compression_policy
                        if cp.enabled and not cp.should_compress():
                            segments = SEGMENTS_PER_LINE  # store uncompressed this phase
                        link = self.link
                        data_done = link.send_data(
                            self.dram.issue_demand(core, link.send_request(request_ready), addr),
                            segments,
                        )
                    latency = data_done - now
                    # LatencyHistogram.record, inlined (latencies are non-negative).
                    hist = self._l2_miss_hist
                    bucket = int(latency).bit_length()
                    if bucket > 24:  # LatencyHistogram.MAX_BUCKET
                        bucket = 24
                    hist._buckets[bucket] += 1
                    hist.count += 1
                    hist.total += latency
                else:
                    latency, segments = sb_hit
                    data_done = now + latency
                # The L2 fill: compression accounting, insert, evictions.
                cstats = self.compression_stats
                if segments < SEGMENTS_PER_LINE:
                    cstats.compressed_lines += 1
                else:
                    cstats.uncompressed_lines += 1
                cstats.segment_sum += segments
                if observer is not None:
                    observer.l2_fill(addr, "demand", segments)
                for ev in l2.insert(
                    addr,
                    segments,
                    dirty=store,
                    fill_time=data_done,
                    sharers=1 << core,
                    owner=core if store else -1,
                    state=MSIState.MODIFIED if store else MSIState.SHARED,
                ):
                    self._handle_l2_eviction(ev, now)
                if self._pf_on:
                    pf2 = self.pf_l2[core]
                    for p in pf2.observe_miss(addr) if sb_hit is None else pf2.observe_hit(addr):
                        self._issue_l2_prefetch(core, p, now)

            # ---- back at the L1: the refill ----
            # The refill pays its own L1's fill latency: L1I for instruction
            # fetches, L1D for loads and stores.
            latency += route[4]
            if self._noc_on:
                # The fill crosses the on-chip network from the L2 bank.
                latency = self.noc.transfer_line(core, now + latency) - now
            # Fill the L1 — unless an L2 prefetch triggered above already
            # pushed this very line back out of the L2 (possible in small
            # caches when the prefetcher bursts into the same set); inserting
            # it then would break inclusion, since the eviction's
            # back-invalidate ran before the L1 had the line.
            l2e = l2map.get(addr)
            if l2e is not None and l2e.valid:
                state = MSIState.MODIFIED if store else MSIState.SHARED
                if l1._plru is not None:
                    ev = l1.insert(addr, state, store, False, now + latency)
                    if ev is not None:
                        self._handle_l1_eviction(core, ev, route, now)
                else:
                    # SetAssocCache.insert (LRU) and _handle_l1_eviction,
                    # inlined.  Invalid frames sit at the stack tail, so the
                    # tail is a free frame or the LRU line.
                    stack = l1._sets[addr % l1.n_sets]
                    frame = stack.pop()
                    l1map = l1._map
                    if frame.valid:
                        old = frame.addr
                        l1map.pop(old, None)
                        depth = l1.victim_depth
                        if depth:
                            victims = l1._victims[old % l1.n_sets]
                            if old in victims:
                                victims.remove(old)
                            victims.insert(0, old)
                            del victims[depth:]
                        stats.evictions += 1
                        if observer is not None:
                            observer.l1_evict(route[5], core, old, "demand_fill")
                        if frame.prefetch_bit:
                            pf.stats.useless += 1
                            pf.adaptive.on_useless()
                            route[6].useless += 1
                        l2e = l2map.get(old)
                        if l2e is not None and l2e.valid:
                            # Directory.remove_sharer, inlined.
                            l2e.sharers &= ~(1 << core)
                            if l2e.owner == core:
                                l2e.owner = -1
                            if frame.dirty:
                                l2e.dirty = True
                                stats.writebacks += 1
                        elif frame.dirty:
                            # Inclusion normally prevents this; write to memory.
                            self._send_writeback(now, self.values.segments_for(old))
                            stats.writebacks += 1
                        frame.sharers = 0
                        frame.owner = -1
                    frame.addr = addr
                    frame.valid = True
                    frame.state = state
                    frame.dirty = store
                    frame.prefetch_bit = False
                    frame.fill_time = now + latency
                    l1map[addr] = frame
                    stack.insert(0, frame)
            if self._pf_on:
                for p in pf.observe_miss(addr):
                    self._issue_l1_prefetch(core, kind, p, now)
            result = (latency, False)
            if observer is not None:
                observer.demand_miss_done(core, route[5], now, latency, addr)
        # LatencyHistogram.record, inlined (one call per trace event).
        hist = route[3]
        bucket = int(latency).bit_length()  # latencies are non-negative
        if bucket > 24:  # LatencyHistogram.MAX_BUCKET
            bucket = 24
        hist._buckets[bucket] += 1
        hist.count += 1
        hist.total += latency
        return result

    def reset_stats(self) -> None:
        """Zero all counters after warmup; *clock and learned state* is kept.

        Deliberately preserved across a reset (it is state of the machine,
        not of the measurement):

        * cache contents, victim tags, and LRU order;
        * busy-until clocks: ``_bank_free``, the pin link's ``free_time``,
          DRAM outstanding-request heaps;
        * prefetcher training state (stream tables, filter tables) and the
          adaptive throttle *counters* (``AdaptiveController.counter``) —
          including their cumulative useful/useless/harmful event totals,
          which the sequential prefetcher consumes as deltas for its
          degree adjustment;
        * the adaptive compression policy's benefit/cost ``counter``.

        Everything that feeds a reported metric is zeroed, including the
        L2 effective-size sampling phase (``_l2_access_count``) and the
        compression policy's benefit/cost *event* tallies — leaking either
        would let warmup skew the measured sampling phase.
        """
        self.l1i_stats = CacheStats()
        self.l1d_stats = CacheStats()
        self.l2_stats = CacheStats()
        for key, group in (("l1i", self.pf_l1i), ("l1d", self.pf_l1d), ("l2", self.pf_l2)):
            self.pf_stats[key] = fresh = PrefetchStats()
            for p in group:
                p.stats = fresh
        self.link.reset_stats()
        self.noc.reset_stats()
        self.taxonomy = PrefetchTaxonomy()
        for key in self.latency_hist:
            self.latency_hist[key] = LatencyHistogram()
        if self.stream_buffers is not None:
            for pool in self.stream_buffers:
                pool.hits = pool.insertions = pool.overflows = 0
        self.compression_stats = CompressionStats()
        self.compression_stats.capacity_lines = self.l2.uncompressed_capacity_lines
        self.dram.demand_requests = 0
        self.dram.prefetch_requests = 0
        self.dram.stalled_issues = 0
        # The open-row tallies are measurement counters like the request
        # counts above; leaving them unreset let warmup traffic leak into
        # the reported row-hit rate (the open-row *state* itself —
        # ``_open_rows`` — is machine state and is kept).
        self.dram.row_hits = 0
        self.dram.row_misses = 0
        if self.mshr is not None:
            self.mshr.reset_stats()
        if self.wb is not None:
            self.wb.reset_stats()
        self._l2_access_count = 0
        self.compression_policy.reset_stats()
        if self.observer is not None:
            self.observer.reset()
        self._rebuild_routes()

    # ------------------------------------------------------------------
    # L1 paths
    # ------------------------------------------------------------------

    def _handle_l1_eviction(
        self, core, ev: Eviction, route, now: float, cause: str = "demand_fill"
    ) -> None:
        _l1, pf, stats, _hist, _lat, level, tax = route
        stats.evictions += 1
        if self.observer is not None:
            self.observer.l1_evict(level, core, ev.addr, cause)
        if ev.prefetch_untouched:
            pf.stats.useless += 1
            pf.adaptive.on_useless()
            tax.useless += 1
        l2e = self.l2._map.get(ev.addr)  # CompressedSetCache.probe, inlined
        if l2e is not None and l2e.valid:
            # Directory.remove_sharer, inlined.
            l2e.sharers &= ~(1 << core)
            if l2e.owner == core:
                l2e.owner = -1
            if ev.dirty:
                l2e.dirty = True
                stats.writebacks += 1
        elif ev.dirty:
            # Inclusion normally prevents this; be safe and write to memory.
            self._send_writeback(now, self.values.segments_for(ev.addr))
            stats.writebacks += 1

    def _upgrade(self, core: int, addr: int, now: float) -> float:
        """S->M upgrade: consult the directory, invalidate other sharers."""
        l2e = self.l2.probe(addr)
        if l2e is None:  # lost to L2 eviction race; treat as cheap re-fetch
            return self.config.l2.hit_latency
        cost = self.config.l2.hit_latency
        cost += self._invalidate_other_sharers(l2e, core)
        self.directory.set_owner(l2e, core)
        l2e.dirty = True
        return cost

    # ------------------------------------------------------------------
    # L2 path
    # ------------------------------------------------------------------

    def _fetch_line(self, core: int, addr: int, request_ready: float, demand: bool):
        """Fetch a line through the MSHR file: request pins -> DRAM ->
        data pins.  Returns ``(data_arrival_time, segments_as_stored)``.

        The access paths inline the default (MSHR-less) model and call
        this only when an MSHR file is configured.  The file owns the
        outstanding-miss limit: a miss to a line whose fetch is still in
        flight coalesces onto the existing entry (no request message, no
        DRAM access, no data message — it rides the in-flight fill), a
        full file makes demand misses wait for the oldest entry, and
        entries are held until the data lands on-chip.  The oracle tap
        (:mod:`repro.verify.tap`) records coalesced fetches so the
        differential oracle can mirror the merge without re-deriving
        MSHR timing.
        """
        mshr = self.mshr
        observer = self.observer
        rec = mshr.lookup(addr, request_ready)
        if rec is not None:
            mshr.coalesced += 1
            if observer is not None:
                observer.mshr_coalesce(core, addr, request_ready)
            return rec[0], rec[1]
        segments = self.values.segments_for(addr)
        if self.compression_policy.enabled and not self.compression_policy.should_compress():
            segments = SEGMENTS_PER_LINE  # store uncompressed this phase
        start = mshr.allocate(core, request_ready, demand)
        request_done = self.link.send_request(start)
        mem_done = self.dram.service(core, request_done, addr, demand)
        data_done = self.link.send_data(mem_done, segments)
        mshr.commit(core, addr, data_done, segments)
        if observer is not None:
            observer.mshr_fetch(core, addr, demand, start, data_done)
        return data_done, segments

    def _stream_buffer_hit(self, core, addr, now, bank_delay, demand):
        """Demand (or L1-prefetch) miss satisfied by the core's stream
        buffers.  Returns ``(latency, segments)`` for the caller's L2
        fill, or None when the buffers miss too."""
        entry = self.stream_buffers[core].take(addr)
        if entry is None:
            return None
        latency = max(bank_delay + self._l2_hit_lat, entry.fill_time - now)
        if demand:
            self.l2_stats.prefetch_hits += 1
            self._pf2_stats.useful += 1
            self.l2_adaptive.on_useful()
            self._tax_l2.useful += 1
        return latency, entry.segments

    def _handle_l2_eviction(
        self, ev: Eviction, now: float, cause: str = "demand_fill"
    ) -> None:
        self.l2_stats.evictions += 1
        observer = self.observer
        if observer is not None:
            observer.l2_evict(ev.addr, cause)
        if ev.prefetch_untouched:
            self._pf2_stats.useless += 1
            self.l2_adaptive.on_useless()
            self._tax_l2.useless += 1
        dirty = ev.dirty
        sharers = ev.sharers
        core = 0
        while sharers:
            if sharers & 1:
                for l1, pf, stats, _hist, _lat, level, tax in (
                    self._route_i[core], self._route_d[core]
                ):
                    l1ev = l1.invalidate(ev.addr)
                    if l1ev is not None:
                        stats.coherence_invalidations += 1
                        if observer is not None:
                            observer.l1_evict(level, core, ev.addr, "inclusion")
                        dirty = dirty or l1ev.dirty
                        if l1ev.prefetch_untouched:
                            pf.stats.useless += 1
                            pf.adaptive.on_useless()
                            tax.useless += 1
            sharers >>= 1
            core += 1
        if dirty:
            self.l2_stats.writebacks += 1
            # Writebacks are compressed at the memory interface even when
            # the L2 stored the line uncompressed (link compression is
            # independent of cache compression in Figure 2's design).
            self._send_writeback(now, self.values.segments_for(ev.addr))

    def _send_writeback(self, now: float, segments: int) -> None:
        """Put a dirty line's data on the memory path: straight onto the
        pin link, or through the bounded write-back buffer when one is
        configured (a full buffer delays the traffic, never the
        eviction)."""
        if self.wb is None:
            self.link.send_data(now, segments)
        else:
            self.wb.insert(now, segments, self.link.send_data)

    # ------------------------------------------------------------------
    # coherence helpers
    # ------------------------------------------------------------------

    def _invalidate_other_sharers(self, entry, core: int) -> float:
        cost = 0.0
        observer = self.observer
        for sharer in list(self.directory.other_sharers(entry, core)):
            for l1, _pf, stats, _hist, _lat, level, _tax in (
                self._route_i[sharer], self._route_d[sharer]
            ):
                l1ev = l1.invalidate(entry.addr)
                if l1ev is not None:
                    stats.coherence_invalidations += 1
                    if observer is not None:
                        observer.l1_evict(level, sharer, entry.addr, "upgrade")
                    if l1ev.dirty:
                        entry.dirty = True
            self.directory.remove_sharer(entry, sharer)
            cost = _INTERVENTION_COST
        return cost

    def _downgrade_owner(self, entry) -> None:
        owner = entry.owner
        for l1 in (self.l1i[owner], self.l1d[owner]):
            l1e = l1.probe(entry.addr)
            if l1e is not None and l1e.state == MSIState.MODIFIED:
                l1e.state = MSIState.SHARED
                l1e.dirty = False
                entry.dirty = True
        self.directory.clear_owner(entry)

    # ------------------------------------------------------------------
    # prefetch issue
    # ------------------------------------------------------------------

    def _pf_fetch_gate(self, core: int, addr: int, now: float) -> bool:
        """May a prefetch start a line fetch through the MSHR file right
        now?  (It is dropped, never stalled, when the answer is no.)  The
        gate is per-core file occupancy — except a prefetch to a line
        already in flight, which will coalesce and needs no new entry.
        Without a file the issue paths gate on ``DRAM.can_issue`` inline."""
        mshr = self.mshr
        return mshr.lookup(addr, now) is not None or mshr.can_allocate(core, now)

    def _issue_l1_prefetch(self, core: int, kind: int, addr: int, now: float) -> None:
        """One L1 prefetch and its shared-L2 leg, in one frame, with the
        same guards as the demand path in :meth:`access`.  An L1 prefetch that misses
        the L2 trains the L2 prefetcher too (the paper "allows L1
        prefetches to trigger L2 prefetches")."""
        if addr < 0:
            return
        route = self._route_i[core] if kind == IFETCH else self._route_d[core]
        l1, pf, _stats, _hist, fill_lat, level, tax = route
        l1e = l1._map.get(addr)  # SetAssocCache.probe, inlined
        if l1e is not None and l1e.valid:
            return
        l2 = self.l2
        entry = l2._map.get(addr)  # CompressedSetCache.probe, inlined
        l2_hit = entry is not None and entry.valid
        mshr = self.mshr
        dram = self.dram
        observer = self.observer
        if not l2_hit:
            if mshr is None:
                heap = dram._prefetch[core]  # DRAM.can_issue, inlined
                while heap and heap[0] <= now:
                    heappop(heap)
                gated = len(heap) >= dram.max_outstanding
            else:
                gated = not self._pf_fetch_gate(core, addr, now)
            if gated:
                pf.stats.dropped += 1
                return
        pf.stats.issued += 1
        tax.issued += 1
        # ---- shared L2: bank occupancy (busy-until), then hit or miss ----
        self._l2_access_count += 1
        if not self._l2_access_count % _SAMPLE_EVERY:
            self.compression_stats.record_sample(l2.resident_lines())
        bank = addr % self._n_banks
        start = self._bank_free[bank]
        if start < now:
            start = now
        self._bank_free[bank] = start + _BANK_OCCUPANCY
        bank_delay = start - now
        if observer is not None:
            observer.bank_busy(bank, start, _BANK_OCCUPANCY)
        if l2_hit:
            latency = bank_delay + self._l2_hit_lat
            line_compressed = l2.compressed and entry.segments < SEGMENTS_PER_LINE
            if line_compressed:
                latency += self._decompression_cycles
                self.l2_stats.compressed_hits += 1
            cp = self.compression_policy
            if cp.enabled:
                cp.on_hit(
                    l2.stack_depth(addr), self.config.l2.uncompressed_assoc, line_compressed
                )
            wait = entry.fill_time - now
            if wait > latency:
                latency = wait
            # The prefetch bit resets on the *first access* to the line —
            # including an L1 prefetch consuming an L2-prefetched line
            # (the L2 prefetch did provide the data the core later used).
            if entry.prefetch_bit:
                if wait > 0:
                    self.l2_stats.partial_hits += 1
                else:
                    self.l2_stats.prefetch_hits += 1
                self._pf2_stats.useful += 1
                self.l2_adaptive.on_useful()
                self._tax_l2.useful += 1
                entry.prefetch_bit = False
            entry.sharers |= 1 << core  # Directory.add_sharer, inlined
            # CompressedSetCache.touch, inlined.
            stack = l2._sets[addr % l2.n_sets].valid_stack
            if stack[0] is not entry:
                stack.remove(entry)
                stack.insert(0, entry)
            plru = l2._plru
            if plru is not None:
                si = addr % l2.n_sets
                plru[si] = plru_touch(plru[si], entry.way, l2.tags_per_set)
            if entry.owner not in (-1, core):
                # Dirty intervention: the owning L1 supplies the data.
                self._downgrade_owner(entry)
                latency += _INTERVENTION_COST
        else:
            sb_hit = None
            if self.stream_buffers is not None:
                sb_hit = self._stream_buffer_hit(core, addr, now, bank_delay, False)
            if sb_hit is None:
                request_ready = now + bank_delay + self._l2_hit_lat
                if mshr is not None:
                    data_done, segments = self._fetch_line(core, addr, request_ready, False)
                else:
                    # _fetch_line's default model: request pins -> DRAM -> data pins.
                    segments = self.values.segments_for(addr)
                    cp = self.compression_policy
                    if cp.enabled and not cp.should_compress():
                        segments = SEGMENTS_PER_LINE  # store uncompressed this phase
                    link = self.link
                    data_done = link.send_data(
                        dram.issue_prefetch(core, link.send_request(request_ready), addr),
                        segments,
                    )
                latency = data_done - now
            else:
                latency, segments = sb_hit
                data_done = now + latency
            # The L2 fill: compression accounting, insert, evictions.
            cstats = self.compression_stats
            if segments < SEGMENTS_PER_LINE:
                cstats.compressed_lines += 1
            else:
                cstats.uncompressed_lines += 1
            cstats.segment_sum += segments
            if observer is not None:
                observer.l2_fill(addr, "l1_prefetch", segments)
            # No L2 prefetch bit: the L1 copy's bit tracks this prefetch.
            for ev in l2.insert(addr, segments, fill_time=data_done, sharers=1 << core):
                self._handle_l2_eviction(ev, now, "prefetch_fill")
            if sb_hit is None and self._pf_on:
                for p in self.pf_l2[core].observe_miss(addr):
                    self._issue_l2_prefetch(core, p, now)

        if observer is not None:
            observer.prefetch_done(core, level, addr, now, fill_lat + latency, False)
        # The prefetched fill pays its own L1's fill latency (L1I for
        # instruction-side prefetches, L1D for data-side ones).  Skip the
        # fill if a nested L2 prefetch evicted this line from the L2
        # again before the L1 could take it (see access).
        l2e = l2._map.get(addr)
        if l2e is not None and l2e.valid:
            ev = l1.insert(addr, MSIState.SHARED, False, True, now + fill_lat + latency)
            if ev is not None:
                self._handle_l1_eviction(core, ev, route, now, "prefetch_fill")

    def _issue_l2_prefetch(self, core: int, addr: int, now: float) -> None:
        """One L2 prefetch, in one frame: the fetch, then an L2 fill with
        the prefetch bit set, or a stream-buffer insert."""
        if addr < 0:
            return
        l2e = self.l2._map.get(addr)  # CompressedSetCache.probe, inlined
        if l2e is not None and l2e.valid:
            return
        sbufs = self.stream_buffers
        if sbufs is not None and sbufs[core].contains(addr):
            return
        mshr = self.mshr
        dram = self.dram
        if mshr is None:
            heap = dram._prefetch[core]  # DRAM.can_issue, inlined
            while heap and heap[0] <= now:
                heappop(heap)
            gated = len(heap) >= dram.max_outstanding
        else:
            gated = not self._pf_fetch_gate(core, addr, now)
        if gated:
            self._pf2_stats.dropped += 1
            return
        self._pf2_stats.issued += 1
        self._tax_l2.issued += 1
        if sbufs is None:  # only a fill into the cache is an L2 access
            self._l2_access_count += 1
            if not self._l2_access_count % _SAMPLE_EVERY:
                self.compression_stats.record_sample(self.l2.resident_lines())
        # Bank occupancy (busy-until), for either placement.
        bank = addr % self._n_banks
        start = self._bank_free[bank]
        if start < now:
            start = now
        self._bank_free[bank] = start + _BANK_OCCUPANCY
        observer = self.observer
        if observer is not None:
            observer.bank_busy(bank, start, _BANK_OCCUPANCY)
        request_ready = now + (start - now) + self._l2_hit_lat  # the other legs' rounding
        if mshr is not None:
            data_done, segments = self._fetch_line(core, addr, request_ready, False)
        else:
            # _fetch_line's default model: request pins -> DRAM -> data pins.
            segments = self.values.segments_for(addr)
            cp = self.compression_policy
            if cp.enabled and not cp.should_compress():
                segments = SEGMENTS_PER_LINE  # store uncompressed this phase
            link = self.link
            data_done = link.send_data(
                dram.issue_prefetch(core, link.send_request(request_ready), addr), segments
            )
        if sbufs is None:
            cstats = self.compression_stats
            if segments < SEGMENTS_PER_LINE:
                cstats.compressed_lines += 1
            else:
                cstats.uncompressed_lines += 1
            cstats.segment_sum += segments
            if observer is not None:
                observer.l2_fill(addr, "l2_prefetch", segments)
            for ev in self.l2.insert(addr, segments, prefetch=True, fill_time=data_done):
                self._handle_l2_eviction(ev, now, "prefetch_fill")
        else:
            # Pollution-free placement: the line waits beside the cache.
            sbufs[core].insert(addr, data_done, segments)
        if observer is not None:
            observer.prefetch_done(core, "l2", addr, now, data_done - now, sbufs is not None)
