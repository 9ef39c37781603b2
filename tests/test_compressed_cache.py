"""Tests for the decoupled variable-segment compressed L2."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.compressed import CompressedSetCache
from repro.params import L2Config


def make_l2(compressed=True, size_kb=16, banks=2) -> CompressedSetCache:
    return CompressedSetCache(
        L2Config(size_bytes=size_kb * 1024, n_banks=banks, compressed=compressed)
    )


def set_addrs(l2: CompressedSetCache, set_idx: int, count: int):
    return [set_idx + k * l2.n_sets for k in range(count)]


class TestCompressedCapacity:
    def test_eight_compressed_lines_fit(self):
        l2 = make_l2()
        addrs = set_addrs(l2, 0, 8)
        for a in addrs:
            assert l2.insert(a, segments=1) == []
        assert all(l2.probe(a) for a in addrs)

    def test_ninth_line_evicts_lru(self):
        l2 = make_l2()
        addrs = set_addrs(l2, 0, 9)
        for a in addrs[:8]:
            l2.insert(a, segments=1)
        evs = l2.insert(addrs[8], segments=1)
        assert [e.addr for e in evs] == [addrs[0]]

    def test_only_four_uncompressed_lines_fit(self):
        l2 = make_l2()
        addrs = set_addrs(l2, 1, 5)
        for a in addrs[:4]:
            l2.insert(a, segments=8)
        evs = l2.insert(addrs[4], segments=8)
        assert len(evs) == 1

    def test_big_insert_can_evict_several_small_lines(self):
        l2 = make_l2()
        addrs = set_addrs(l2, 2, 9)
        for a in addrs[:8]:
            l2.insert(a, segments=1)  # 8 lines, 8 segments used, 0 free tags
        evs = l2.insert(addrs[8], segments=8)
        # Needs a tag: evicts exactly one LRU line (segment space is ample).
        assert [e.addr for e in evs] == [addrs[0]]

    def test_mixed_segment_packing_fills_all_tags(self):
        l2 = make_l2()
        addrs = set_addrs(l2, 3, 8)
        # 8 lines x 4 segments = 32 = the 4-line data space: exactly fits.
        for a in addrs:
            assert l2.insert(a, segments=4) == []
        assert l2.free_victim_tags(addrs[0]) == 0

    def test_uncompressed_mode_forces_eight_segments(self):
        l2 = make_l2(compressed=False)
        addrs = set_addrs(l2, 0, 5)
        for a in addrs[:4]:
            l2.insert(a, segments=1)  # ignored; stored as 8 segments
        evs = l2.insert(addrs[4], segments=1)
        assert len(evs) == 1

    def test_segment_range_validated(self):
        l2 = make_l2()
        with pytest.raises(ValueError):
            l2.insert(0, segments=0)
        with pytest.raises(ValueError):
            l2.insert(0, segments=9)

    def test_duplicate_insert_raises(self):
        l2 = make_l2()
        l2.insert(7, segments=2)
        with pytest.raises(ValueError):
            l2.insert(7, segments=2)


class TestVictimTags:
    def test_eviction_creates_victim_tag(self):
        l2 = make_l2()
        a, b = set_addrs(l2, 0, 2)
        l2.insert(a, segments=8)
        l2.invalidate(a)
        assert l2.victim_match(a)
        assert not l2.victim_match(b)

    def test_compression_reduces_victim_tags(self):
        """Section 5.4: compressible sets keep fewer spare tags."""
        l2 = make_l2()
        addrs = set_addrs(l2, 4, 8)
        probe = addrs[0]
        assert l2.free_victim_tags(probe) == 8
        for a in addrs[:4]:
            l2.insert(a, segments=8)
        assert l2.free_victim_tags(probe) == 4
        # Evict-and-repack with compressed lines: more live lines, fewer tags.
        l2b = make_l2()
        for a in set_addrs(l2b, 4, 8):
            l2b.insert(a, segments=2)
        assert l2b.free_victim_tags(probe) == 0

    def test_uncompressed_mode_has_four_victim_tags(self):
        l2 = make_l2(compressed=False)
        addrs = set_addrs(l2, 0, 4)
        for a in addrs:
            l2.insert(a, segments=8)
        assert l2.free_victim_tags(addrs[0]) == 4

    def test_oldest_victim_claimed_first(self):
        l2 = make_l2(compressed=False)
        a, b, c, d, e, f = set_addrs(l2, 0, 6)
        for x in (a, b, c, d):
            l2.insert(x, segments=8)
        l2.insert(e, segments=8)  # evicts a -> victim
        l2.insert(f, segments=8)  # evicts b -> victim
        assert l2.victim_match(a) and l2.victim_match(b)


class TestResize:
    def test_shrink_releases_segments(self):
        l2 = make_l2()
        a = 5
        l2.insert(a, segments=8)
        assert l2.resize(a, 2) == []
        assert l2.probe(a).segments == 2

    def test_grow_within_budget_evicts_nothing(self):
        l2 = make_l2()
        addrs = set_addrs(l2, 6, 8)
        for a in addrs:
            l2.insert(a, segments=1)
        assert l2.resize(addrs[-1], 8) == []  # 7 + 8 = 15 <= 32

    def test_grow_beyond_budget_evicts_lru_others(self):
        l2 = make_l2()
        addrs = set_addrs(l2, 7, 8)
        for a in addrs:
            l2.insert(a, segments=4)  # 8 x 4 = 32: data space exactly full
        evs = l2.resize(addrs[-1], 8)  # needs 4 more segments
        assert len(evs) == 1
        assert evs[0].addr == addrs[0]  # LRU victim
        assert l2.probe(addrs[-1]).segments == 8

    def test_resize_missing_raises(self):
        l2 = make_l2()
        with pytest.raises(KeyError):
            l2.resize(123, 4)


class TestAccounting:
    def test_resident_lines_tracks_inserts_and_evictions(self):
        l2 = make_l2()
        addrs = set_addrs(l2, 0, 10)
        count = 0
        for a in addrs:
            evs = l2.insert(a, segments=4)
            count += 1 - len(evs)
        assert l2.resident_lines() == count

    def test_bank_interleaving(self):
        l2 = make_l2(banks=2)
        assert l2.bank_of(0) == 0
        assert l2.bank_of(1) == 1
        assert l2.bank_of(2) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),  # line address
            st.integers(min_value=1, max_value=8),  # segments
        ),
        min_size=1,
        max_size=400,
    )
)
def test_property_segment_invariants(ops):
    """Whatever the insert sequence: per-set used segments stay within the
    data-space budget, equal the sum over live lines, and live line count
    never exceeds the tag count."""
    l2 = make_l2()
    for addr, segs in ops:
        if l2.probe(addr) is None:
            l2.insert(addr, segments=segs)
        else:
            l2.touch(addr)
    for idx, cset in enumerate(l2._sets):
        used = sum(e.segments for e in cset.valid_stack)
        assert used == cset.used_segments
        assert used <= l2.total_segments
        assert len(cset.valid_stack) <= l2.tags_per_set
        assert len(cset.valid_stack) + len(cset.victim_stack) + cset.fresh == l2.tags_per_set
    assert l2.resident_lines() == sum(len(s.valid_stack) for s in l2._sets)
