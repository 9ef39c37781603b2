"""Pointer-chase prefetching: the heap model, the content-directed
prefetcher and the linked-data ``chase`` workload.

Three layers, mirroring the stride/sequential suites: the bare
:class:`HeapModel` graph/layout invariants, the
:class:`PointerChasePrefetcher` policy object driven directly, and the
``chase`` trace generator's stream contract (the same events however
the stream is cut into chunks).
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.params import LINE_BYTES, PrefetchConfig
from repro.prefetch.adaptive import AdaptiveController
from repro.prefetch.pointer import PointerChasePrefetcher
from repro.stats.counters import PrefetchStats
from repro.workloads.base import TraceGenerator
from repro.workloads.linked import CHASE, HEAP_BASE, HeapModel
from repro.workloads.registry import all_names, get_spec
from repro.workloads.values import ValueModel


# ---------------------------------------------------------------------------
# HeapModel
# ---------------------------------------------------------------------------


class TestHeapModel:
    def test_geometry_and_containment(self):
        heap = HeapModel(nodes=64, node_lines=2, out_degree=2, window=8, seed=3)
        assert heap.total_lines == 128
        assert heap.contains(HEAP_BASE)
        assert heap.contains(HEAP_BASE + 127)
        assert not heap.contains(HEAP_BASE - 1)
        assert not heap.contains(HEAP_BASE + 128)
        assert heap.node_line(5) == HEAP_BASE + 10

    def test_successors_deterministic_and_in_window(self):
        heap = HeapModel(nodes=256, out_degree=3, window=16, seed=9)
        again = HeapModel(nodes=256, out_degree=3, window=16, seed=9)
        for node in range(0, 256, 17):
            for slot in range(3):
                succ = heap.successor(node, slot)
                assert succ == again.successor(node, slot)
                step = (succ - node) % 256
                assert 1 <= step <= 16  # forward within the window, no self-loop

    def test_seed_changes_the_graph(self):
        a = HeapModel(nodes=256, seed=0)
        b = HeapModel(nodes=256, seed=1)
        assert any(
            a.successor(n, 0) != b.successor(n, 0) for n in range(64)
        )

    def test_first_line_embeds_successor_pointers(self):
        heap = HeapModel(nodes=128, node_lines=2, out_degree=2, window=8, seed=5)
        node = 17
        words = heap.line_words(heap.node_line(node))
        for slot in range(heap.out_degree):
            candidate = (words[2 * slot] << 32) | words[2 * slot + 1]
            assert candidate % LINE_BYTES == 0
            assert candidate // LINE_BYTES == heap.node_line(heap.successor(node, slot))

    def test_filler_words_cannot_alias_pointers(self):
        """Filler words stay below 2**14; a real pointer's high word is a
        heap byte address >> 32, far above that — so scanning is exact."""
        heap = HeapModel(nodes=64, node_lines=2, out_degree=1, window=4, seed=2)
        pointer_hi = (heap.node_line(0) * LINE_BYTES) >> 32
        assert pointer_hi >= 1 << 14
        payload = heap.line_words(heap.node_line(3) + 1)  # non-pointer line
        assert all(w < (1 << 14) for w in payload)

    def test_line_words_rejects_foreign_addresses(self):
        heap = HeapModel(nodes=16)
        with pytest.raises(ValueError):
            heap.line_words(HEAP_BASE - 1)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            HeapModel(nodes=1)
        with pytest.raises(ValueError):
            HeapModel(node_lines=0)
        with pytest.raises(ValueError):
            HeapModel(out_degree=8)
        with pytest.raises(ValueError):
            HeapModel(window=0)


# ---------------------------------------------------------------------------
# PointerChasePrefetcher
# ---------------------------------------------------------------------------


def _values_with_heap(heap):
    return ValueModel(CHASE.value_mix, seed=0, pool_size=64, heap=heap)


def make_pf(level="l2", *, degree=4, heap=None, enabled=True, adaptive=None,
            values=None, stats=None):
    cfg = PrefetchConfig(enabled=enabled, kind="pointer", pointer_degree=degree)
    if values is None and heap is not None:
        values = _values_with_heap(heap)
    return PointerChasePrefetcher(
        level, cfg, adaptive=adaptive, stats=stats or PrefetchStats(), values=values
    )


class TestPointerChasePrefetcher:
    def test_scans_fill_and_returns_successor_lines(self):
        heap = HeapModel(nodes=128, node_lines=2, out_degree=2, window=8, seed=1)
        pf = make_pf(heap=heap)
        node = 9
        targets = pf.observe_miss(heap.node_line(node))
        expected = {heap.node_line(heap.successor(node, s)) for s in range(2)}
        assert set(targets) == expected
        assert pf.stats.streams_allocated == 1

    def test_degree_limit_and_l1_halving(self):
        heap = HeapModel(nodes=512, node_lines=1, out_degree=6, window=64, seed=4)
        l2 = make_pf("l2", degree=4, heap=heap)
        l1 = make_pf("l1", degree=4, heap=heap)
        line = heap.node_line(33)
        assert len(l2.observe_miss(line)) == 4  # degree-limited below out_degree
        assert len(l1.observe_miss(line)) == 2  # L1 gets half the budget

    def test_payload_lines_issue_nothing(self):
        """A node's payload lines hold only filler — no pointers, no
        prefetches, no stream accounting."""
        heap = HeapModel(nodes=64, node_lines=2, out_degree=2, window=8, seed=7)
        pf = make_pf(heap=heap)
        assert pf.observe_miss(heap.node_line(5) + 1) == []
        assert pf.stats.streams_allocated == 0

    def test_non_heap_addresses_never_scanned(self):
        heap = HeapModel(nodes=64)
        pf = make_pf(heap=heap)
        assert pf.observe_miss(HEAP_BASE - 10) == []
        assert pf.observe_miss(12345) == []
        assert pf.stats.streams_allocated == 0

    def test_inert_without_a_heap(self):
        """Non-linked workloads build no heap; the prefetcher must not
        touch their value model at all."""
        no_heap = ValueModel(CHASE.value_mix, seed=0, pool_size=64)
        pf = make_pf(values=no_heap)
        assert pf.observe_miss(HEAP_BASE) == []
        pf_none = make_pf()
        assert pf_none.observe_miss(HEAP_BASE) == []

    def test_disabled_config_issues_nothing(self):
        heap = HeapModel(nodes=64)
        pf = make_pf(heap=heap, enabled=False)
        assert pf.observe_miss(heap.node_line(1)) == []

    def test_hits_issue_nothing(self):
        heap = HeapModel(nodes=64)
        pf = make_pf(heap=heap)
        assert pf.observe_hit(heap.node_line(1)) == []

    def test_adaptive_throttle_scales_the_budget(self):
        heap = HeapModel(nodes=512, node_lines=1, out_degree=6, window=64, seed=4)
        adaptive = AdaptiveController(counter_max=16, enabled=True)
        for _ in range(64):  # drive the counter to the floor
            adaptive.on_harmful()
        stats = PrefetchStats()
        pf = make_pf("l2", degree=4, heap=heap, adaptive=adaptive, stats=stats)
        issued = pf.observe_miss(heap.node_line(10))
        assert len(issued) < 4
        assert stats.throttled > 0

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            make_pf("l3", heap=HeapModel(nodes=64))


# ---------------------------------------------------------------------------
# the chase workload + value-model overlay
# ---------------------------------------------------------------------------


class TestChaseWorkload:
    def test_registered(self):
        assert "chase" in all_names()
        assert get_spec("chase") is CHASE
        assert CHASE.pointer_fraction > 0

    def test_spec_validation_bounds(self):
        with pytest.raises(ValueError):
            replace(CHASE, pointer_fraction=1.5)
        with pytest.raises(ValueError):
            # fractions must still sum to at most 1
            replace(CHASE, pointer_fraction=0.9, hot_fraction=0.2)
        with pytest.raises(ValueError):
            replace(CHASE, heap_nodes=1)

    def test_value_model_serves_heap_lines(self):
        heap = HeapModel.from_spec(CHASE, seed=0)
        values = _values_with_heap(heap)
        line = heap.node_line(3)
        assert values.line_words(line) == heap.line_words(line)
        # heap lines get real (mostly uncompressible) segment counts and
        # the memo returns a stable answer
        assert values.segments_for(line) == values.segments_for(line)
        # non-heap addresses still come from the pooled model
        assert values.line_words(123) == values.line_words(123)

    def _generator(self, seed, heap):
        return TraceGenerator(
            CHASE, core_id=1, n_cores=2, l2_lines=512, l1i_lines=64,
            seed=seed, heap=heap,
        )

    def test_generator_stream_independent_of_chunking(self):
        """The chase stream must not depend on how it is cut into
        chunks: a boundary mid-step parks that step's pending fetches,
        and the walk state persists on the generator between calls."""
        heap = HeapModel.from_spec(CHASE, seed=11)
        whole = self._generator(11, heap).fill_chunk(600)
        gen = self._generator(11, HeapModel.from_spec(CHASE, seed=11))
        pieces = []
        for n in (1, 7, 192, 200, 200):
            pieces += gen.fill_chunk(n)
        assert pieces == whole
        assert list(itertools.islice(self._generator(11, heap).events(), 600)) == whole

    def test_chase_traffic_touches_the_heap(self):
        heap = HeapModel.from_spec(CHASE, seed=0)
        gen = self._generator(0, heap)
        heap_hits = sum(1 for _, _, a in gen.fill_chunk(2000) if heap.contains(a))
        # pointer_fraction=0.5 of data traffic; allow wide slack
        assert heap_hits > 200
