"""Decoupled variable-segment compressed cache (the shared L2).

Following Alameldeen & Wood's ISCA'04 design, each set has
``tags_per_set`` (8) address tags decoupled from a data array of
``data_segments_per_set`` 8-byte segments — 32 segments, i.e. data space
for exactly 4 uncompressed 64-byte lines.  (The HPCA'07 text says "64
8-byte segments" in one sentence and "data space for 4 uncompressed
lines" in another; the two are inconsistent, and we follow the 4-line
data space that both papers' capacity claims — "at most double" — are
built on.)  An uncompressed line uses 8 segments; FPC-compressed lines
use 1-7, so a set can hold between 4 (all uncompressed) and 8 (all
well-compressed) lines.

Invalid tags retain their last address.  These *victim tags* are exactly
what the paper's adaptive prefetcher mines to detect harmful prefetches:
a miss whose address matches a victim tag, in a set that still holds an
unreferenced prefetched line, was plausibly caused by that prefetch.

With ``compressed=False`` the same structure models the paper's
uncompressed-L2-with-adaptive-prefetching configuration: every line
occupies 8 segments (so at most 4 live lines per set) and the 4 spare
tags serve purely as victim tags (Section 5.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.line import MSIState, TagEntry
from repro.cache.lru import touch
from repro.cache.plru import plru_touch, plru_victim
from repro.cache.set_assoc import Eviction
from repro.params import L2Config, SEGMENTS_PER_LINE


class _Set:
    """One set's tags: the valid stack, the victim stack and ``fresh``.

    ``fresh`` counts the ways never claimed yet; they stand for the
    address-less tail ``TagEntry(0) .. TagEntry(fresh - 1)`` of the
    victim stack, built only when :meth:`CompressedSetCache.insert`
    claims one.  Retired tags go to the front of the victim stack and
    claims take its tail, so fresh ways are always claimed first, way
    ``fresh - 1`` down to 0, exactly as if they were built tags at the
    stack's tail.
    """

    __slots__ = ("valid_stack", "victim_stack", "used_segments", "fresh")

    def __init__(self, tags: int) -> None:
        self.valid_stack: List[TagEntry] = []  # MRU first
        # Most-recently-evicted first; entries here are invalid tags whose
        # ``addr`` is the victim address.  Each tag keeps the fixed way it
        # was built in (tree-PLRU victim selection needs it).
        self.victim_stack: List[TagEntry] = []
        self.used_segments = 0
        self.fresh = tags

    def victim_tags(self) -> List[Tuple[int, int]]:
        """``(addr, way)`` of every invalid tag in victim-stack order,
        fresh ways last with address -1."""
        return [(e.addr, e.way) for e in self.victim_stack] + [
            (-1, way) for way in range(self.fresh)
        ]


class CompressedSetCache:
    """The shared L2: banked, inclusive, optionally compressed.

    With ``replacement="plru"`` the eviction loop picks the tree-PLRU
    victim among the set's *valid* tags instead of the recency-stack
    tail; recency stacks, victim-tag recycling order (oldest victim tag
    claimed first) and every other structure are maintained identically.
    """

    __slots__ = (
        "config",
        "n_sets",
        "tags_per_set",
        "total_segments",
        "compressed",
        "_sets",
        "_map",
        "_valid_count",
        "_plru",
    )

    def __init__(self, config: L2Config) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self.tags_per_set = config.tags_per_set
        self.total_segments = config.data_segments_per_set
        self.compressed = config.compressed
        self._sets = [_Set(config.tags_per_set) for _ in range(self.n_sets)]
        self._map: Dict[int, TagEntry] = {}
        self._valid_count = 0
        # Packed tree direction bits per set; None in LRU mode.
        self._plru: Optional[List[int]] = (
            [0] * self.n_sets if config.replacement == "plru" else None
        )

    # -- geometry ----------------------------------------------------------

    def set_index(self, line_addr: int) -> int:
        return line_addr % self.n_sets

    def bank_of(self, line_addr: int) -> int:
        """Banks are interleaved on the least-significant line-address bits."""
        return line_addr % self.config.n_banks

    # -- lookups -----------------------------------------------------------

    def probe(self, line_addr: int) -> Optional[TagEntry]:
        entry = self._map.get(line_addr)
        if entry is not None and entry.valid:
            return entry
        return None

    def touch(self, line_addr: int) -> None:
        entry = self._map.get(line_addr)
        if entry is None or not entry.valid:
            raise KeyError(f"line {line_addr:#x} not resident")
        touch(self._sets[line_addr % self.n_sets].valid_stack, entry)
        if self._plru is not None:
            si = line_addr % self.n_sets
            self._plru[si] = plru_touch(self._plru[si], entry.way, self.tags_per_set)

    def stack_depth(self, line_addr: int) -> int:
        """0-based LRU stack position of a resident line (0 = MRU)."""
        cset = self._sets[self.set_index(line_addr)]
        for depth, entry in enumerate(cset.valid_stack):
            if entry.addr == line_addr:
                return depth
        raise KeyError(f"line {line_addr:#x} not resident")

    def victim_match(self, line_addr: int) -> bool:
        """Search the set's invalid tags (in stack order) for this address."""
        for entry in self._sets[self.set_index(line_addr)].victim_stack:
            if entry.addr == line_addr:
                return True
        return False

    def set_has_prefetched_line(self, line_addr: int) -> bool:
        for entry in self._sets[self.set_index(line_addr)].valid_stack:
            if entry.prefetch_bit:
                return True
        return False

    def free_victim_tags(self, line_addr: int) -> int:
        """How many victim tags the set currently has (8 - live lines)."""
        cset = self._sets[self.set_index(line_addr)]
        return len(cset.victim_stack) + cset.fresh

    # -- modification ------------------------------------------------------

    def insert(
        self,
        line_addr: int,
        segments: int,
        *,
        dirty: bool = False,
        prefetch: bool = False,
        fill_time: float = 0.0,
        sharers: int = 0,
        owner: int = -1,
        state: int = MSIState.SHARED,
    ) -> List[Eviction]:
        """Insert a line, evicting as many LRU lines as segment space and
        tag availability require.  Returns the (possibly several) evictions.
        """
        resident = self._map.get(line_addr)
        if resident is not None and resident.valid:
            raise ValueError(f"line {line_addr:#x} already resident")
        if not self.compressed:
            segments = SEGMENTS_PER_LINE
        if not 1 <= segments <= SEGMENTS_PER_LINE:
            raise ValueError(f"segment count out of range: {segments}")

        cset = self._sets[line_addr % self.n_sets]
        plru = self._plru
        evictions: List[Eviction] = []
        while (cset.used_segments + segments > self.total_segments
               or not (cset.victim_stack or cset.fresh)):
            if plru is None:
                evictions.append(self._evict_lru(cset))
            else:
                evictions.append(self._evict_plru(cset, line_addr % self.n_sets))

        if cset.fresh:
            # Never-claimed ways sit at the victim stack's tail: build one.
            cset.fresh -= 1
            entry = object.__new__(TagEntry)
            entry.way = cset.fresh
        else:
            # Claim the *oldest* victim tag so fresher victim addresses survive.
            entry = cset.victim_stack.pop()
        entry.addr = line_addr
        entry.valid = True
        entry.state = state
        entry.dirty = dirty
        entry.prefetch_bit = prefetch
        entry.segments = segments
        entry.fill_time = fill_time
        entry.sharers = sharers
        entry.owner = owner
        cset.valid_stack.insert(0, entry)
        cset.used_segments += segments
        self._map[line_addr] = entry
        self._valid_count += 1
        if plru is not None:
            si = line_addr % self.n_sets
            plru[si] = plru_touch(plru[si], entry.way, self.tags_per_set)
        return evictions

    def invalidate(self, line_addr: int) -> Optional[Eviction]:
        entry = self._map.get(line_addr)
        if entry is None or not entry.valid:
            return None
        cset = self._sets[self.set_index(line_addr)]
        cset.valid_stack.remove(entry)
        return self._retire(cset, entry)

    def resize(self, line_addr: int, new_segments: int) -> List[Eviction]:
        """Re-pack a resident line after its contents change size.

        Growing may force evictions of *other* lines (never the line
        itself); shrinking just releases segments.
        """
        entry = self._map.get(line_addr)
        if entry is None or not entry.valid:
            raise KeyError(f"line {line_addr:#x} not resident")
        if not self.compressed:
            return []
        if not 1 <= new_segments <= SEGMENTS_PER_LINE:
            raise ValueError(f"segment count out of range: {new_segments}")
        cset = self._sets[self.set_index(line_addr)]
        evictions: List[Eviction] = []
        delta = new_segments - entry.segments
        while delta > 0 and cset.used_segments + delta > self.total_segments:
            if self._plru is None:
                victim = self._lru_other(cset, entry)
            else:
                victim = self._plru_other(cset, entry, self.set_index(line_addr))
            if victim is None:  # only this line left; cannot overflow (<=8 segs)
                break
            cset.valid_stack.remove(victim)
            evictions.append(self._retire(cset, victim))
        cset.used_segments += delta
        entry.segments = new_segments
        return evictions

    # -- accounting --------------------------------------------------------

    def resident_lines(self) -> int:
        """Live line count — the effective-cache-size numerator (Table 3)."""
        return self._valid_count

    @property
    def uncompressed_capacity_lines(self) -> int:
        return self.n_sets * self.config.uncompressed_assoc

    def check_invariants(self) -> List[tuple]:
        """Verify the decoupled-cache structural invariants.

        Returns ``(invariant, message, context)`` tuples (empty list =
        healthy).  Checked: the per-set segment budget (never more than
        ``data_segments_per_set`` segments packed), ``used_segments``
        bookkeeping vs. the resident lines, tag conservation (valid +
        victim + fresh tags == ``tags_per_set``), segment-count ranges
        (exactly 8 when uncompressed), set-index placement, ``_map`` and
        ``_valid_count`` agreement, and duplicate tags.  Used by
        :mod:`repro.obs.audit`.
        """
        problems: List[tuple] = []
        total_valid = 0
        valid_addrs = set()
        for index, cset in enumerate(self._sets):
            victims = len(cset.victim_stack) + cset.fresh
            if len(cset.valid_stack) + victims != self.tags_per_set:
                problems.append((
                    "l2.tag_conservation",
                    "valid + victim tags != tags_per_set",
                    {"set": index, "valid": len(cset.valid_stack),
                     "victims": victims, "tags": self.tags_per_set},
                ))
            segments = 0
            for entry in cset.valid_stack:
                if not entry.valid:
                    problems.append((
                        "l2.invalid_in_valid_stack",
                        "invalid tag on the valid stack",
                        {"set": index, "addr": entry.addr},
                    ))
                if not 1 <= entry.segments <= SEGMENTS_PER_LINE:
                    problems.append((
                        "l2.segment_range",
                        "line segment count out of [1, 8]",
                        {"set": index, "addr": entry.addr, "segments": entry.segments},
                    ))
                if not self.compressed and entry.segments != SEGMENTS_PER_LINE:
                    problems.append((
                        "l2.uncompressed_segments",
                        "compressed-size line stored in an uncompressed cache",
                        {"set": index, "addr": entry.addr, "segments": entry.segments},
                    ))
                if entry.addr % self.n_sets != index:
                    problems.append((
                        "l2.set_index",
                        "line resides in the wrong set",
                        {"set": index, "addr": entry.addr},
                    ))
                if entry.addr in valid_addrs:
                    problems.append((
                        "l2.duplicate_tag",
                        "address resident under two tags",
                        {"set": index, "addr": entry.addr},
                    ))
                if self._map.get(entry.addr) is not entry:
                    problems.append((
                        "l2.map_stack_disagree",
                        "valid tag not reachable through _map",
                        {"set": index, "addr": entry.addr},
                    ))
                valid_addrs.add(entry.addr)
                segments += entry.segments
            if segments != cset.used_segments:
                problems.append((
                    "l2.used_segments",
                    "used_segments disagrees with the resident lines",
                    {"set": index, "recorded": cset.used_segments, "actual": segments},
                ))
            if cset.used_segments > self.total_segments:
                problems.append((
                    "l2.segment_budget",
                    "set packs more segments than its data space holds",
                    {"set": index, "used": cset.used_segments, "budget": self.total_segments},
                ))
            for entry in cset.victim_stack:
                if entry.valid:
                    problems.append((
                        "l2.valid_victim_tag",
                        "valid tag on the victim stack",
                        {"set": index, "addr": entry.addr},
                    ))
            total_valid += len(cset.valid_stack)
        if total_valid != self._valid_count:
            problems.append((
                "l2.valid_count",
                "_valid_count disagrees with the stacks",
                {"counted": total_valid, "recorded": self._valid_count},
            ))
        if len(self._map) != len(valid_addrs) or set(self._map) != valid_addrs:
            problems.append((
                "l2.map_size",
                "_map keys disagree with the resident lines",
                {"map": len(self._map), "resident": len(valid_addrs)},
            ))
        for index, cset in enumerate(self._sets):
            ways = sorted(
                [e.way for e in cset.valid_stack]
                + [way for _, way in cset.victim_tags()]
            )
            if ways != list(range(self.tags_per_set)):
                problems.append((
                    "l2.way_partition",
                    "set's tags do not cover ways 0..tags_per_set-1 exactly once",
                    {"set": index, "ways": ways},
                ))
        if self._plru is not None:
            limit = 1 << (self.tags_per_set - 1)
            for index, bits in enumerate(self._plru):
                if not 0 <= bits < limit:
                    problems.append((
                        "l2.plru_bits",
                        "tree bits outside the tags_per_set-1 bit range",
                        {"set": index, "bits": bits, "tags": self.tags_per_set},
                    ))
        return problems

    # -- internals ----------------------------------------------------------

    def _evict_lru(self, cset: _Set) -> Eviction:
        if not cset.valid_stack:
            raise RuntimeError("eviction requested from an empty set")
        entry = cset.valid_stack.pop()
        return self._retire(cset, entry)

    def _evict_plru(self, cset: _Set, si: int) -> Eviction:
        """Evict the tree-PLRU victim among the set's valid tags."""
        if not cset.valid_stack:
            raise RuntimeError("eviction requested from an empty set")
        mask = 0
        for e in cset.valid_stack:
            mask |= 1 << e.way
        way = plru_victim(self._plru[si], self.tags_per_set, mask)
        for entry in cset.valid_stack:
            if entry.way == way:
                cset.valid_stack.remove(entry)
                return self._retire(cset, entry)
        raise RuntimeError("plru victim way not on the valid stack")

    def _plru_other(self, cset: _Set, keep: TagEntry, si: int) -> Optional[TagEntry]:
        """Tree-PLRU victim among the valid tags, excluding ``keep``."""
        mask = 0
        for e in cset.valid_stack:
            if e is not keep:
                mask |= 1 << e.way
        if not mask:
            return None
        way = plru_victim(self._plru[si], self.tags_per_set, mask)
        for entry in cset.valid_stack:
            if entry.way == way:
                return entry
        return None

    def _retire(self, cset: _Set, entry: TagEntry) -> Eviction:
        eviction = Eviction(
            addr=entry.addr,
            dirty=entry.dirty,
            prefetch_untouched=entry.prefetch_bit,
            state=entry.state,
            sharers=entry.sharers,
            owner=entry.owner,
            segments=entry.segments,
        )
        cset.used_segments -= entry.segments
        self._map.pop(entry.addr, None)
        self._valid_count -= 1
        entry.reset()  # retains addr: becomes a victim tag
        cset.victim_stack.insert(0, entry)
        return eviction

    @staticmethod
    def _lru_other(cset: _Set, keep: TagEntry) -> Optional[TagEntry]:
        for entry in reversed(cset.valid_stack):
            if entry is not keep:
                return entry
        return None
