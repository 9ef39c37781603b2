"""Plain set-associative cache with LRU replacement (the private L1s).

Each set carries ``victim_depth`` extra address-only victim tags so the
adaptive prefetcher can detect harmful prefetches at the L1s too (the L2
gets real victim tags for free from compression's spare address tags; see
:mod:`repro.cache.compressed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.line import MSIState, TagEntry
from repro.cache.lru import touch
from repro.cache.plru import plru_touch, plru_victim
from repro.params import CacheConfig


@dataclass(slots=True)
class Eviction:
    """What an insertion pushed out."""

    addr: int
    dirty: bool
    prefetch_untouched: bool  # prefetch bit still set => useless prefetch
    state: int = MSIState.INVALID
    sharers: int = 0  # L1 sharer bit-vector (meaningful for L2 evictions)
    owner: int = -1
    segments: int = 8


class SetAssocCache:
    """LRU (or tree-PLRU) set-associative cache addressed by *line* address.

    The per-set recency stack is maintained identically in both modes —
    ``set_has_prefetched_line``, stack-depth probes and the state
    comparisons in the differential oracle all read it — PLRU changes
    only *which frame an insertion claims* (tree bits instead of the
    stack tail) and adds tree-bit updates on touch/insert.
    """

    __slots__ = (
        "config", "n_sets", "assoc", "victim_depth", "_sets", "_map",
        "_victims", "_plru", "_frames",
    )

    def __init__(self, config: CacheConfig, victim_depth: int = 0) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self.victim_depth = victim_depth
        self._sets: List[List[TagEntry]] = [
            [TagEntry(way) for way in range(config.assoc)] for _ in range(self.n_sets)
        ]
        self._map: Dict[int, TagEntry] = {}
        # Per-set MRU-first list of recently evicted line addresses.
        self._victims: List[List[int]] = [[] for _ in range(self.n_sets)]
        if config.replacement == "plru":
            # One packed int of tree direction bits per set, plus a fixed
            # way -> frame index (the stacks reorder; the tree needs the
            # physical position).
            self._plru: Optional[List[int]] = [0] * self.n_sets
            self._frames: Optional[List[List[TagEntry]]] = [
                list(stack) for stack in self._sets
            ]
        else:
            self._plru = None
            self._frames = None

    def set_index(self, line_addr: int) -> int:
        return line_addr % self.n_sets

    def probe(self, line_addr: int) -> Optional[TagEntry]:
        """Lookup without touching LRU state."""
        entry = self._map.get(line_addr)
        if entry is not None and entry.valid:
            return entry
        return None

    def touch(self, line_addr: int) -> None:
        """Promote a resident line to MRU."""
        entry = self._map.get(line_addr)
        if entry is None or not entry.valid:
            raise KeyError(f"line {line_addr:#x} not resident")
        touch(self._sets[line_addr % self.n_sets], entry)
        if self._plru is not None:
            si = line_addr % self.n_sets
            self._plru[si] = plru_touch(self._plru[si], entry.way, self.assoc)

    def insert(
        self,
        line_addr: int,
        state: int = MSIState.SHARED,
        dirty: bool = False,
        prefetch: bool = False,
        fill_time: float = 0.0,
    ) -> Optional[Eviction]:
        """Insert a line at MRU, returning the eviction it caused (if any)."""
        resident = self._map.get(line_addr)
        if resident is not None and resident.valid:
            raise ValueError(f"line {line_addr:#x} already resident")
        stack = self._sets[line_addr % self.n_sets]
        if self._plru is None:
            # Invalid entries are kept at the stack tail (see invalidate),
            # so the last slot is either a free frame or the true LRU
            # line; no free-frame scan is needed.
            entry = stack[-1]
        else:
            # Tree-PLRU: fill an invalid frame first (walking the tree
            # over the invalid ways keeps the choice deterministic), else
            # evict the tree's victim among the valid ways.
            si = line_addr % self.n_sets
            invalid_mask = 0
            valid_mask = 0
            for e in stack:
                if e.valid:
                    valid_mask |= 1 << e.way
                else:
                    invalid_mask |= 1 << e.way
            way = plru_victim(
                self._plru[si], self.assoc, invalid_mask or valid_mask
            )
            entry = self._frames[si][way]
        eviction = None
        if entry.valid:
            # SetAssocCache._evict, inlined (the field resets are folded
            # into the overwrites below; sharers/owner are reset here).
            old = entry.addr
            eviction = Eviction(old, entry.dirty, entry.prefetch_bit, entry.state)
            self._map.pop(old, None)
            if self.victim_depth:
                victims = self._victims[old % self.n_sets]
                if old in victims:
                    victims.remove(old)
                victims.insert(0, old)
                del victims[self.victim_depth :]
            entry.sharers = 0
            entry.owner = -1
        entry.addr = line_addr
        entry.valid = True
        entry.state = state
        entry.dirty = dirty
        entry.prefetch_bit = prefetch
        entry.fill_time = fill_time
        self._map[line_addr] = entry
        if self._plru is None:
            del stack[-1]
        else:
            stack.remove(entry)
            si = line_addr % self.n_sets
            self._plru[si] = plru_touch(self._plru[si], entry.way, self.assoc)
        stack.insert(0, entry)
        return eviction

    def invalidate(self, line_addr: int) -> Optional[Eviction]:
        """Coherence invalidation; the tag becomes a victim tag."""
        entry = self._map.get(line_addr)
        if entry is None or not entry.valid:
            return None
        eviction = self._evict(entry)
        # Keep freed frames at the stack tail so insert can always reuse
        # the last slot without scanning (invalid frames never matter for
        # LRU order — probe and touch skip them).
        stack = self._sets[line_addr % self.n_sets]
        stack.remove(entry)
        stack.append(entry)
        return eviction

    def victim_match(self, line_addr: int) -> bool:
        """Was this line recently evicted from its set (harmful-prefetch probe)?"""
        return line_addr in self._victims[self.set_index(line_addr)]

    def set_has_prefetched_line(self, line_addr: int) -> bool:
        """Does the set currently hold any still-unreferenced prefetched line?"""
        for entry in self._sets[self.set_index(line_addr)]:
            if entry.valid and entry.prefetch_bit:
                return True
        return False

    def resident_lines(self) -> int:
        return sum(1 for e in self._map.values() if e.valid)

    def check_invariants(self) -> List[tuple]:
        """Verify the structural invariants the hot path relies on.

        Returns ``(invariant, message, context)`` tuples, one per problem
        found (empty list = healthy).  Checked: fixed stack geometry,
        invalid-frames-at-tail ordering (the insert fast path depends on
        it), set-index placement, ``_map`` <-> stack agreement, duplicate
        tags, and the victim-tag depth bound.  Used by
        :mod:`repro.obs.audit`; kept here so the structure and its
        contract live side by side.
        """
        problems: List[tuple] = []
        valid_addrs: Dict[int, TagEntry] = {}
        for index, stack in enumerate(self._sets):
            if len(stack) != self.assoc:
                problems.append((
                    "set_assoc.stack_size",
                    "LRU stack does not hold exactly assoc frames",
                    {"set": index, "frames": len(stack), "assoc": self.assoc},
                ))
            seen_invalid = False
            for depth, entry in enumerate(stack):
                if not entry.valid:
                    seen_invalid = True
                    continue
                if seen_invalid:
                    problems.append((
                        "set_assoc.invalid_at_tail",
                        "valid frame found below an invalid frame",
                        {"set": index, "depth": depth, "addr": entry.addr},
                    ))
                if entry.addr % self.n_sets != index:
                    problems.append((
                        "set_assoc.set_index",
                        "line resides in the wrong set",
                        {"set": index, "addr": entry.addr},
                    ))
                if entry.addr in valid_addrs:
                    problems.append((
                        "set_assoc.duplicate_tag",
                        "address resident in two frames",
                        {"set": index, "addr": entry.addr},
                    ))
                if self._map.get(entry.addr) is not entry:
                    problems.append((
                        "set_assoc.map_stack_disagree",
                        "stack frame not reachable through _map",
                        {"set": index, "addr": entry.addr},
                    ))
                valid_addrs[entry.addr] = entry
        for addr, entry in self._map.items():
            if not entry.valid or entry.addr != addr:
                problems.append((
                    "set_assoc.map_entry",
                    "_map references an invalid or mislabelled frame",
                    {"addr": addr, "valid": entry.valid, "entry_addr": entry.addr},
                ))
            elif addr not in valid_addrs:
                problems.append((
                    "set_assoc.map_orphan",
                    "_map entry not present in any LRU stack",
                    {"addr": addr},
                ))
        for index, victims in enumerate(self._victims):
            if len(victims) > self.victim_depth:
                problems.append((
                    "set_assoc.victim_depth",
                    "victim list exceeds its configured depth",
                    {"set": index, "len": len(victims), "depth": self.victim_depth},
                ))
        if self._plru is not None:
            limit = 1 << (self.assoc - 1)
            for index, bits in enumerate(self._plru):
                if not 0 <= bits < limit:
                    problems.append((
                        "set_assoc.plru_bits",
                        "tree bits outside the assoc-1 bit range",
                        {"set": index, "bits": bits, "assoc": self.assoc},
                    ))
            for index, frames in enumerate(self._frames):
                for way, entry in enumerate(frames):
                    if entry.way != way or entry not in self._sets[index]:
                        problems.append((
                            "set_assoc.plru_frames",
                            "way->frame table disagrees with the set",
                            {"set": index, "way": way},
                        ))
        return problems

    def _evict(self, entry: TagEntry) -> Eviction:
        addr = entry.addr
        eviction = Eviction(addr, entry.dirty, entry.prefetch_bit, entry.state)
        self._map.pop(addr, None)
        if self.victim_depth:
            victims = self._victims[addr % self.n_sets]
            if addr in victims:
                victims.remove(addr)
            victims.insert(0, addr)
            del victims[self.victim_depth :]
        # TagEntry.reset, inlined (invalidate but retain the address).
        entry.valid = False
        entry.state = MSIState.INVALID
        entry.dirty = False
        entry.prefetch_bit = False
        entry.sharers = 0
        entry.owner = -1
        return eviction
