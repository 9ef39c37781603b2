"""Lazy L2 tag frames: a set builds a tag only when a way is first claimed.

The eager reference below is the set layout the lazy one replaced: every
set starts with ``TagEntry(0) .. TagEntry(tags - 1)`` on its victim stack
and ``insert`` pops the stack's tail.  Both must evict the same lines and
show the same ``(addr, way)`` victim view after every operation.
"""

from __future__ import annotations

import gc
import random
from typing import List

import pytest

from repro import CMPSystem, make_config
from repro.cache.compressed import CompressedSetCache, _Set
from repro.cache.line import MSIState, TagEntry
from repro.cache.plru import plru_touch
from repro.cache.set_assoc import Eviction
from repro.params import L2Config, SEGMENTS_PER_LINE


class _EagerSet:
    __slots__ = ("valid_stack", "victim_stack", "used_segments", "fresh")

    def __init__(self, tags: int) -> None:
        self.valid_stack: List[TagEntry] = []
        self.victim_stack = [TagEntry(way) for way in range(tags)]
        self.used_segments = 0
        self.fresh = 0

    victim_tags = _Set.victim_tags


class EagerL2(CompressedSetCache):
    """Every tag built up front; ``insert`` claims the victim stack's tail."""

    def __init__(self, config: L2Config) -> None:
        super().__init__(config)
        self._sets = [_EagerSet(config.tags_per_set) for _ in range(self.n_sets)]

    def insert(self, line_addr, segments, *, dirty=False, prefetch=False,
               fill_time=0.0, sharers=0, owner=-1, state=MSIState.SHARED):
        resident = self._map.get(line_addr)
        if resident is not None and resident.valid:
            raise ValueError(f"line {line_addr:#x} already resident")
        if not self.compressed:
            segments = SEGMENTS_PER_LINE
        cset = self._sets[line_addr % self.n_sets]
        plru = self._plru
        evictions: List[Eviction] = []
        while cset.used_segments + segments > self.total_segments or not cset.victim_stack:
            if plru is None:
                evictions.append(self._evict_lru(cset))
            else:
                evictions.append(self._evict_plru(cset, line_addr % self.n_sets))
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


def _view(l2: CompressedSetCache):
    return (
        [
            ([(e.addr, e.way, e.segments, e.prefetch_bit) for e in s.valid_stack],
             s.victim_tags(), s.used_segments)
            for s in l2._sets
        ],
        l2._plru,
        l2.resident_lines(),
    )


@pytest.mark.parametrize("replacement", ["lru", "plru"])
@pytest.mark.parametrize("compressed", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_lazy_sets_match_eager_reference(replacement, compressed, seed):
    config = L2Config(size_bytes=8 * 1024, n_banks=2, compressed=compressed,
                      replacement=replacement)
    lazy, eager = CompressedSetCache(config), EagerL2(config)
    assert _view(lazy) == _view(eager)
    rng = random.Random(seed)
    # Few sets, many addresses per set: conflicts, victim hits, refills.
    addrs = [s + k * lazy.n_sets for s in range(4) for k in range(14)]
    for _ in range(600):
        addr = rng.choice(addrs)
        op = rng.random()
        if lazy.probe(addr) is None:
            if op < 0.8:
                segments = rng.randint(1, SEGMENTS_PER_LINE)
                prefetch = rng.random() < 0.3
                assert (lazy.insert(addr, segments, prefetch=prefetch)
                        == eager.insert(addr, segments, prefetch=prefetch))
        elif op < 0.25:
            assert lazy.invalidate(addr) == eager.invalidate(addr)
        elif op < 0.6:
            segments = rng.randint(1, SEGMENTS_PER_LINE)
            assert lazy.resize(addr, segments) == eager.resize(addr, segments)
        else:
            lazy.touch(addr)
            eager.touch(addr)
        assert lazy.victim_match(addr) == eager.victim_match(addr)
        assert lazy.free_victim_tags(addr) == eager.free_victim_tags(addr)
        assert _view(lazy) == _view(eager)
    assert lazy.check_invariants() == []
    assert eager.check_invariants() == []


def _live_tags() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is TagEntry)


def test_construction_builds_no_l2_tags_and_a_run_builds_one_per_claimed_way():
    config = make_config("pref_compr", n_cores=2, scale=4)
    before = _live_tags()
    system = CMPSystem(config, "zeus", seed=0)
    hierarchy = system.hierarchy
    l1_tags = sum(
        len(stack) for cache in (*hierarchy.l1i, *hierarchy.l1d) for stack in cache._sets
    )
    l2 = hierarchy.l2
    assert all(
        not s.valid_stack and not s.victim_stack and s.fresh == l2.tags_per_set
        for s in l2._sets
    )
    assert _live_tags() - before == l1_tags

    system.run(300, warmup_events=200)
    claimed = sum(l2.tags_per_set - s.fresh for s in l2._sets)
    built = sum(len(s.valid_stack) + len(s.victim_stack) for s in l2._sets)
    assert 0 < claimed < l2.n_sets * l2.tags_per_set
    assert built == claimed
    assert _live_tags() - before == l1_tags + claimed
