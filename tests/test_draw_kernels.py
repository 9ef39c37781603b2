"""The inlined random draws of the value pool and the trace generator
against the ``random.Random`` helper calls they replaced.

``repro.workloads.values`` and ``repro.workloads.base`` draw their bits
straight from ``getrandbits`` and ``random`` instead of going through
``randint``, ``randrange``, ``choices`` and ``expovariate``.  Every pool,
trace and result must stay bit-identical, so this file keeps the
helper-based code verbatim as the reference and compares words, segment
tables, traces and the RNG state after them.  The kernels copy the
internals of CPython's ``random.py`` (``_randbelow_with_getrandbits``,
``expovariate``, ``choices``), so this also runs on the oldest and the
newest supported interpreter.

Runs under pytest, or as a plain script on an interpreter without it::

    PYTHONPATH=src python tests/test_draw_kernels.py
"""

from __future__ import annotations

import itertools
import platform
import random
from itertools import accumulate
from typing import List, Tuple

from repro.compression.bdi import compressed_size_bytes as bdi_size_bytes
from repro.compression.fpc import WORDS_PER_LINE
from repro.compression.fpc import compressed_size_bytes as fpc_size_bytes
from repro.compression.schemes import SCHEME_NAMES, build_scheme
from repro.compression.segments import segments_for_size
from repro.params import LINE_BYTES
from repro.workloads import base
from repro.workloads.base import (
    _I_BASE,
    _INSTR_PER_LINE,
    _SHARED_BASE,
    IFETCH,
    LOAD,
    STORE,
    TraceGenerator,
    _StreamState,
)
from repro.workloads.custom import WorkloadBuilder, derive
from repro.workloads.linked import HeapModel
from repro.workloads.registry import WORKLOADS
from repro.workloads.values import VALUE_CLASSES, ValueModel

_MASK32 = 0xFFFFFFFF

# -- reference: the helper-based value classes, verbatim ----------------------


def _zero_line(rng: random.Random) -> List[int]:
    """Zero-initialised / sparse data — FPC's best case."""
    return [0] * WORDS_PER_LINE


def _near_zero_line(rng: random.Random) -> List[int]:
    """Mostly zero with a couple of small values (sparse structs)."""
    words = [0] * WORDS_PER_LINE
    for _ in range(rng.randint(1, 3)):
        words[rng.randrange(WORDS_PER_LINE)] = rng.randint(1, 100)
    return words


def _tiny_int_line(rng: random.Random) -> List[int]:
    """Flags and enums: values fitting 4-bit sign extension."""
    return [rng.randint(-8, 7) & _MASK32 for _ in range(WORDS_PER_LINE)]


def _small_int_line(rng: random.Random) -> List[int]:
    """Counters and small quantities: 8-bit sign-extendable words."""
    return [rng.randint(-128, 127) & _MASK32 for _ in range(WORDS_PER_LINE)]


def _half_int_line(rng: random.Random) -> List[int]:
    """16-bit quantities (lengths, ids)."""
    return [rng.randint(-32768, 32767) & _MASK32 for _ in range(WORDS_PER_LINE)]


def _byte_text_line(rng: random.Random) -> List[int]:
    """Text-ish buffers: repeated bytes and small byte values."""
    words = []
    for _ in range(WORDS_PER_LINE):
        if rng.random() < 0.5:
            b = rng.randrange(256)
            words.append(b * 0x01010101)
        else:
            words.append(rng.randint(0, 127))
    return words


def _int64_line(rng: random.Random) -> List[int]:
    """Small 64-bit integers: (zero high word, small low word) pairs."""
    words = []
    for _ in range(WORDS_PER_LINE // 2):
        words.append(0)
        words.append(rng.randint(0, 4000))
    return words


def _pointer_line(rng: random.Random) -> List[int]:
    """64-bit heap pointers: small high word, random-looking low word."""
    words = []
    for _ in range(WORDS_PER_LINE // 2):
        words.append(rng.randint(0, 255))  # high word: 8-bit sign-extendable
        words.append(rng.getrandbits(32))  # low word: incompressible
    return words


def _random_line(rng: random.Random) -> List[int]:
    """Uniformly random words — incompressible."""
    return [rng.getrandbits(32) for _ in range(WORDS_PER_LINE)]


def _float_dense_line(rng: random.Random) -> List[int]:
    """Dense FP data: random mantissas, FPC finds nothing (the paper's
    'lossless compression of floating-point data remains a hard problem')."""
    return [rng.getrandbits(32) | 0x00800000 for _ in range(WORDS_PER_LINE)]


def _float_sparse_line(rng: random.Random) -> List[int]:
    """FP arrays with zero elements mixed in ('most of the benefit for
    floating-point applications comes from compressing zeros')."""
    return [
        0 if rng.random() < 0.4 else rng.getrandbits(32) | 0x00800000
        for _ in range(WORDS_PER_LINE)
    ]


REFERENCE_CLASSES = {
    "zero": _zero_line,
    "near_zero": _near_zero_line,
    "tiny_int": _tiny_int_line,
    "small_int": _small_int_line,
    "half_int": _half_int_line,
    "byte_text": _byte_text_line,
    "int64": _int64_line,
    "pointer": _pointer_line,
    "random": _random_line,
    "float_dense": _float_dense_line,
    "float_sparse": _float_sparse_line,
}


def reference_pool(mix, seed: int = 0, pool_size: int = 1024) -> List[List[int]]:
    """``ValueModel.__init__``'s pool loop, verbatim."""
    total = sum(w for _, w in mix)
    rng = random.Random(seed ^ 0x5EED)
    lines: List[List[int]] = []
    classes = [name for name, _ in mix]
    # Cumulative, as random.choices would build them on every draw.
    cum_weights = list(accumulate(w / total for _, w in mix))
    for _ in range(pool_size):
        name = rng.choices(classes, cum_weights=cum_weights)[0]
        lines.append(REFERENCE_CLASSES[name](rng))
    return lines


def reference_sizer(scheme: str, lines):
    """The on-demand line sizer each scheme used before the change."""
    if scheme == "fpc":
        return lambda words: segments_for_size(min(fpc_size_bytes(words), LINE_BYTES))
    if scheme == "bdi":
        return lambda words: segments_for_size(min(bdi_size_bytes(words), LINE_BYTES))
    return build_scheme(scheme, sample_lines=lines).segments


# -- reference: the helper-based trace generator, verbatim --------------------


class ReferenceGenerator(TraceGenerator):
    """``TraceGenerator`` with the helper-based ``fill_chunk``,
    ``_stream_address`` and ``_seed_stream``."""

    def fill_chunk(self, n: int) -> List[Tuple[int, int, int]]:
        rng = self.rng
        spec = self.spec
        random_ = rng.random
        expovariate = rng.expovariate
        jump_prob = spec.i_jump_prob
        i_locality = spec.i_locality
        store_fraction = spec.store_fraction
        i_lines = self.i_lines
        mean = spec.instr_per_event
        rate = 1.0 / mean if mean > 1 else 0.0
        stride_fraction = spec.stride_fraction
        stride_or_hot = spec.stride_fraction + spec.hot_fraction
        hot_or_pointer = stride_or_hot + spec.pointer_fraction
        shared_fraction = spec.shared_fraction
        locality = spec.locality
        shared_lines = self.shared_lines
        private_lines = self.private_lines
        private_base = self.private_base
        hot_lines = self.hot_lines
        heap = self.heap
        chase_node = self._chase_node
        randrange = rng.randrange
        stream_address = self._stream_address
        pc_line = self._pc_line
        instr_into_line = self._instr_into_line
        pending = self._chunk_pending
        append = pending.append
        pop = pending.pop
        out: List[Tuple[int, int, int]] = []
        emit = out.append
        count = 0
        while pending and count < n:
            emit(pop())
            count += 1
        while count < n:
            # Geometric-ish gap with the configured mean, at least 1.
            gap = 1 + int(expovariate(rate)) if rate else 1
            # Instruction-side: advance the PC, jump occasionally, queue an
            # IFETCH for every new code line entered.
            if random_() < jump_prob:
                pc_line = int(i_lines * (random_() ** i_locality))
                instr_into_line = 0
                append((0, IFETCH, _I_BASE + pc_line))
            instr_into_line += gap
            crossed = instr_into_line // _INSTR_PER_LINE
            if crossed:
                instr_into_line %= _INSTR_PER_LINE
                # At most 2 fetch events per gap; a long sequential run
                # touches each line once, and the gap rarely spans more.
                for i in range(min(crossed, 2)):
                    pc_line = (pc_line + 1) % i_lines
                    append((0, IFETCH, _I_BASE + pc_line))
            # Data-side: one access per step (_data_address, inlined with
            # the same RNG call sequence).
            r = random_()
            if r < stride_fraction:
                addr = stream_address()
            elif r < stride_or_hot:
                addr = private_base + randrange(hot_lines)
            elif r < hot_or_pointer:
                node = chase_node
                chase_node = heap.successor(node, randrange(heap.out_degree))
                addr = heap.node_line(node) + randrange(heap.node_lines)
            elif random_() < shared_fraction:
                addr = _SHARED_BASE + int(shared_lines * (random_() ** locality))
            else:
                addr = private_base + int(private_lines * (random_() ** locality))
            emit((gap, STORE if random_() < store_fraction else LOAD, addr))
            count += 1
            while pending and count < n:
                emit(pop())
                count += 1
        self._pc_line = pc_line
        self._instr_into_line = instr_into_line
        self._chase_node = chase_node
        return out

    def _stream_address(self) -> int:
        stream = self._streams[self.rng.randrange(len(self._streams))]
        if stream.remaining <= 0:
            self._seed_stream(stream)
        addr = self.private_base + (stream.pos % self.private_lines)
        stream.pos += stream.stride
        stream.remaining -= 1
        return addr

    def _seed_stream(self, stream: _StreamState) -> _StreamState:
        stream.pos = self.rng.randrange(self.private_lines)
        stream.stride = self.rng.choices(
            self._stride_choices, cum_weights=self._stride_cum_weights
        )[0]
        stream.remaining = self.spec.stream_length
        return stream


# -- the specs under test ------------------------------------------------------

#: One custom spec on the traps: a single stream (the stream pick is
#: ``randrange(1)``), one-line heap nodes (``randrange(1)`` again), a
#: one-instruction mean gap (no ``expovariate`` draw at all), five
#: strides, a 3-way heap fan-out and every value class in the pool.
CUSTOM = derive(
    WorkloadBuilder("kernel-traps")
    .streaming(fraction=0.3, length=3, streams_per_core=1,
               strides=((1, 0.4), (2, 0.2), (-1, 0.2), (7, 0.1), (-3, 0.1)))
    .instruction_mix(footprint_factor=3.0, instr_per_event=1.0, jump_prob=0.25)
    .values(*[(name, 1.0 + i) for i, name in enumerate(VALUE_CLASSES)])
    .build(),
    hot_fraction=0.3,
    pointer_fraction=0.2,
    heap_nodes=512,
    heap_node_lines=1,
    heap_out_degree=3,
)

SPECS = [*WORKLOADS.values(), CUSTOM]


def _generators(spec, core: int, seed: int):
    kwargs = dict(core_id=core, n_cores=2, l2_lines=16384, l1i_lines=256, seed=seed)
    return ReferenceGenerator(spec, **kwargs), TraceGenerator(spec, **kwargs)


def _draw(gen: TraceGenerator, n: int, chunk: int) -> List[Tuple[int, int, int]]:
    events: List[Tuple[int, int, int]] = []
    while len(events) < n:
        events += gen.fill_chunk(min(chunk, n - len(events)))
    return events


# -- tests ---------------------------------------------------------------------


def test_value_classes_draw_the_same_words_and_bits():
    assert set(VALUE_CLASSES) == set(REFERENCE_CLASSES)
    for name, ref in REFERENCE_CLASSES.items():
        kernel = VALUE_CLASSES[name]
        for seed in range(50):
            a, b = random.Random(seed), random.Random(seed)
            for line in range(40):
                assert kernel(b) == ref(a), (name, seed, line)
            assert b.getstate() == a.getstate(), (name, seed)


def test_every_workload_pool_and_segment_table_is_unchanged():
    for spec in SPECS:
        for seed in (0, 1, 7):
            lines = reference_pool(spec.value_mix, seed=seed)
            model = ValueModel(spec.value_mix, seed=seed)
            assert model._lines == lines, (spec.name, seed)
            sizer = reference_sizer("fpc", lines)
            assert model._segments == [sizer(w) for w in lines], (spec.name, seed)


def test_every_scheme_sizes_the_pool_and_the_heap_as_before():
    spec = WORKLOADS["chase"]
    heap = HeapModel.from_spec(spec, seed=3)
    heap_lines = [heap.base + i for i in range(0, heap.total_lines, 37)]
    for mix in (spec.value_mix, CUSTOM.value_mix):
        lines = reference_pool(mix, seed=3, pool_size=256)
        for scheme in SCHEME_NAMES:
            model = ValueModel(mix, seed=3, pool_size=256, scheme=scheme, heap=heap)
            sizer = reference_sizer(scheme, lines)
            assert model._segments == [sizer(w) for w in lines], scheme
            assert [model.segments_for(a) for a in heap_lines] == [
                sizer(heap.line_words(a)) for a in heap_lines
            ], scheme


def test_every_workload_trace_is_unchanged_however_it_is_chunked():
    for spec in SPECS:
        for core, seed in itertools.product((0, 1), range(4)):
            ref, _ = _generators(spec, core, seed)
            expected = _draw(ref, 5000, base.CHUNK)
            for chunk in (1, 7, base.CHUNK):
                _, gen = _generators(spec, core, seed)
                assert _draw(gen, 5000, chunk) == expected, (spec.name, core, seed, chunk)
                assert gen.rng.getstate() == ref.rng.getstate(), (spec.name, core, seed, chunk)


def test_randbelow_matches_randrange_including_one():
    for n in (1, 2, 3, 16, 100, 128, 255, 256, 4001, 1 << 20, (1 << 20) + 1):
        a, b = random.Random(n), random.Random(n)
        assert [base.randbelow(b.getrandbits, n) for _ in range(200)] == [
            a.randrange(n) for _ in range(200)
        ], n
        assert b.getstate() == a.getstate(), n


if __name__ == "__main__":
    tests = [name for name in sorted(globals()) if name.startswith("test_")]
    for name in tests:
        globals()[name]()
    print(f"{len(tests)} draw-kernel checks passed on Python {platform.python_version()}")
