"""Seeded trace-and-config fuzzing for the verification subsystem.

Each fuzz case draws a random (but always *legal*) :class:`SystemConfig`
and a random trace from a small workload grammar — strided walks,
pointer chases, producer/consumer sharing over a common region, hot-set
churn and instruction fetch — then drives the full verification stack
over it:

1. a simulation with invariant auditing forced on
   (:mod:`repro.obs.audit` sweeps inclusion / directory / segment /
   conservation invariants during the run),
2. the functional oracle (:mod:`repro.verify.oracle`) replaying the
   recorded op stream and comparing every structural counter and the
   final cache state,
3. the full-dict JSON round trip (the disk cache's wire format), and
4. one metamorphic property (:mod:`repro.verify.properties`), rotating
   through the applicable ones by seed.

Failures are shrunk (fewer events, fewer cores, features switched off —
whatever still reproduces) and persisted as JSON repro files in the
crash corpus, replayable with :func:`reproduce` or
``repro fuzz --repro <file>``.

The base case seed (default 0) and the crash-corpus directory (default
``.repro_fuzz``) are :func:`run_fuzz` arguments, set from the CLI with
``repro fuzz --seed`` and ``--corpus``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import durable
from repro.core.system import CMPSystem
from repro.obs.audit import AuditViolation
from repro.params import LINE_BYTES, SystemConfig, asdict, config_from_dict
from repro.params import CacheConfig, L2Config, LinkConfig, MemoryConfig, PrefetchConfig
from repro.report.export import result_fingerprint, result_from_dict, result_to_full_dict
from repro.trace.format import TraceHeader
from repro.trace.io import TracePack
from repro.verify.oracle import OracleMismatch, verify_system
from repro.verify.properties import (
    PropertyViolation,
    check_attribution_noop,
    check_bandwidth_monotonicity,
    check_compression_noop,
    check_degree_zero,
    check_determinism,
    check_reset_conservation,
)
from repro.workloads.base import IFETCH, LOAD, STORE
from repro.workloads.linked import HEAP_BASE
from repro.workloads.registry import all_names, get_spec

# ---------------------------------------------------------------------------
# random configurations (always satisfying the dataclass validators)
# ---------------------------------------------------------------------------


def random_config(rng) -> SystemConfig:
    """Draw a legal, deliberately small :class:`SystemConfig`.

    Geometries are built from set/assoc counts (so divisibility
    constraints hold by construction) and kept tiny: fuzzing wants many
    evictions, invalidations and segment-budget decisions per event,
    which big caches would spread thin.
    """
    n_cores = rng.choice((1, 2, 2, 4))

    def l1() -> CacheConfig:
        assoc = rng.choice((1, 2, 4))  # powers of two, so PLRU is always legal
        sets = rng.choice((4, 8, 16))
        return CacheConfig(
            size_bytes=sets * assoc * LINE_BYTES,
            assoc=assoc,
            replacement=rng.choice(("lru", "lru", "plru")),
        )

    l2_assoc = rng.choice((2, 4))
    tags = l2_assoc * rng.choice((1, 2))
    n_banks = rng.choice((1, 2, 4))
    sets_per_bank = rng.choice((4, 8, 16))
    l2 = L2Config(
        size_bytes=n_banks * sets_per_bank * l2_assoc * LINE_BYTES,
        n_banks=n_banks,
        tags_per_set=tags,
        uncompressed_assoc=l2_assoc,
        decompression_cycles=rng.choice((0, 5)),
        compressed=rng.random() < 0.5,
        adaptive_compression=rng.random() < 0.25,
        scheme=rng.choice(("fpc", "fpc", "bdi", "fvc", "selective", "zero_only")),
        replacement=rng.choice(("lru", "lru", "plru")),  # tags_per_set is 2/4/8
    )
    prefetch = PrefetchConfig(
        enabled=rng.random() < 0.7,
        adaptive=rng.random() < 0.4,
        kind=rng.choice(("stride", "stride", "sequential", "pointer")),
        shared_l2=rng.random() < 0.25,
        placement=rng.choice(("cache", "cache", "stream_buffer")),
        stream_buffers=rng.choice((2, 4)),
        stream_buffer_depth=rng.choice((2, 4)),
        confirm_misses=rng.choice((3, 4, 5)),
        stream_entries=rng.choice((4, 8)),
        l1_startup=rng.choice((0, 2, 6)),
        l2_startup=rng.choice((0, 4, 25)),
        l1_victim_tags=rng.choice((2, 4)),
    )
    link = LinkConfig(
        bandwidth_gbs=rng.choice((2.0, 10.0, 20.0, None)),
        compressed=rng.random() < 0.5,
    )
    memory = MemoryConfig(
        latency_cycles=rng.choice((100, 400)),
        max_outstanding_per_core=rng.choice((2, 4, 16)),
        row_buffer=rng.random() < 0.3,
        dram_banks=rng.choice((4, 16)),
        row_lines=32,
        row_hit_latency=60,
        # Tiny MSHR files / write-back buffers against tiny caches: lots
        # of full-file stalls, drops and coalescing windows per event.
        mshr_entries=rng.choice((None, None, 1, 2, 4)),
        writeback_buffer=rng.choice((0, 0, 1, 2)),
    )
    return SystemConfig(
        n_cores=n_cores,
        onchip_bandwidth_gbs=rng.choice((None, None, None, 320.0)),
        l1i=l1(),
        l1d=l1(),
        l2=l2,
        link=link,
        memory=memory,
        prefetch=prefetch,
        # Exercise the causal-attribution tracker (read-only by contract;
        # check_attribution_noop asserts the fingerprint identity).
        attribution=rng.random() < 0.25,
    )


# ---------------------------------------------------------------------------
# random traces from a workload grammar
# ---------------------------------------------------------------------------

# Disjoint line-address regions, mirroring the live generators' layout
# (shared region common to all cores, private regions spaced by a prime).
_SHARED_BASE = (2 << 40) + 15485863
_PRIVATE_BASE = 3 << 40
_PRIVATE_STRIDE = (1 << 36) + 32452843
_CODE_BASE = (1 << 40) + 104729


def _core_events(
    rng, core: int, n_cores: int, count: int, shared: List[int], heap_lines: int = 0
) -> List[Tuple[int, int, int]]:
    """One core's event list: a random mixture of the grammar's moves."""
    private = _PRIVATE_BASE + core * _PRIVATE_STRIDE
    # pointer chase: a random permutation cycle over a small block set
    chase_n = rng.choice((32, 64, 128))
    chase = list(range(chase_n))
    rng.shuffle(chase)
    chase_pos = 0
    hot = [private + 4096 + rng.randrange(64) for _ in range(rng.choice((8, 16, 32)))]
    stride = rng.choice((1, 1, 2, 3, 4, -1, -2, 8))
    stride_pos = rng.randrange(512)
    stride_left = 0
    code_pos = 0
    code_lines = rng.choice((4, 64, 256))
    store_frac = rng.uniform(0.05, 0.4)
    # stride, chase, shared, hot, [heap walk,] ifetch
    weights = [rng.random() + 0.05 for _ in range(6 if heap_lines else 5)]
    total = sum(weights)
    cum = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cum.append(acc)

    events: List[Tuple[int, int, int]] = []
    for _ in range(count):
        gap = rng.randint(1, 40)
        u = rng.random()
        if u < cum[0]:  # strided stream
            if stride_left <= 0:
                stride = rng.choice((1, 1, 2, 3, 4, -1, -2, 8))
                stride_pos = rng.randrange(1 << 12)
                stride_left = rng.randint(8, 64)
            stride_pos += stride
            stride_left -= 1
            addr = private + (stride_pos & 0xFFFF)
            kind = STORE if rng.random() < store_frac else LOAD
        elif u < cum[1]:  # pointer chase
            chase_pos = chase[chase_pos]
            addr = private + (1 << 20) + chase_pos
            kind = LOAD
        elif u < cum[2]:  # producer/consumer sharing
            addr = rng.choice(shared)
            producer = addr % n_cores == core
            kind = STORE if producer and rng.random() < 0.6 else LOAD
        elif u < cum[3]:  # hot-set churn
            if rng.random() < 0.02:
                hot[rng.randrange(len(hot))] = private + 4096 + rng.randrange(64)
            addr = rng.choice(hot)
            kind = STORE if rng.random() < store_frac else LOAD
        elif heap_lines and u < cum[4]:  # heap walk (linked-data workloads)
            # Arbitrary lines in the heap region: exercises the value-model
            # overlay and gives pointer-chase prefetchers real lines to scan.
            addr = HEAP_BASE + rng.randrange(heap_lines)
            kind = STORE if rng.random() < store_frac * 0.5 else LOAD
        else:  # instruction fetch
            code_pos = (code_pos + 1) % code_lines if rng.random() < 0.9 else rng.randrange(code_lines)
            addr = _CODE_BASE + core * 1024 + code_pos
            kind = IFETCH
        events.append((gap, kind, addr))
    return events


def random_trace(rng, workload: str, n_cores: int, events_per_core: int) -> TracePack:
    """A grammar-generated trace, tagged with a registered workload name
    (the name selects the value model that sizes compressed lines)."""
    shared = [_SHARED_BASE + i for i in range(rng.choice((16, 64, 128)))]
    spec = get_spec(workload)
    heap_lines = spec.heap_nodes * spec.heap_node_lines if spec.pointer_fraction > 0 else 0
    cores = [
        _core_events(rng, core, n_cores, events_per_core, shared, heap_lines)
        for core in range(n_cores)
    ]
    header = TraceHeader(
        workload=workload,
        n_cores=n_cores,
        events_per_core=events_per_core,
        seed=rng.randrange(1 << 31),
    )
    return TracePack(header, cores)


# ---------------------------------------------------------------------------
# one fuzz case
# ---------------------------------------------------------------------------


@dataclass
class FuzzFailure:
    """A persisted, replayable fuzz failure."""

    seed: int
    stage: str
    error: str
    config: Dict
    trace_events: List[List[Tuple[int, int, int]]]
    workload: str
    events_per_core: int
    shrunk: bool = False
    path: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "stage": self.stage,
                "error": self.error,
                "config": self.config,
                "workload": self.workload,
                "events_per_core": self.events_per_core,
                "trace_events": self.trace_events,
                "shrunk": self.shrunk,
            },
            indent=1,
        )


def _pack(config: SystemConfig, workload: str, events) -> TracePack:
    header = TraceHeader(
        workload=workload,
        n_cores=config.n_cores,
        events_per_core=len(events[0]),
        seed=0,
    )
    return TracePack(header, events)


def _check_case(
    config: SystemConfig, trace: TracePack, *, property_index: Optional[int]
) -> None:
    """Run the whole verification stack on one case; raise on failure."""
    events = trace.events_per_core
    warmup = events // 2
    audited = replace(config, audit=True, audit_interval=max(events // 4, 64))
    system = CMPSystem(audited, trace=trace)
    result, _ = verify_system(system, events, warmup_events=warmup, config_name="fuzz")
    wire = json.dumps(result_to_full_dict(result), sort_keys=True)
    if result_fingerprint(result_from_dict(json.loads(wire))) != result_fingerprint(result):
        raise PropertyViolation("fuzz: JSON round trip changed the result")
    if property_index is None:
        return
    checks: List[Callable] = [
        check_determinism,
        check_reset_conservation,
        check_compression_noop,
        check_degree_zero,
        check_attribution_noop,
    ]
    if config.link.bandwidth_gbs is not None:
        checks.append(check_bandwidth_monotonicity)
    check = checks[property_index % len(checks)]
    kwargs = dict(trace=trace)
    if check is check_reset_conservation:
        kwargs.update(warmup=warmup, events=events)
    else:
        kwargs.update(events=events, warmup=warmup)
    check(config, **kwargs)


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


def _simplifications(config: SystemConfig) -> List[Tuple[str, SystemConfig]]:
    """Candidate feature removals, most-drastic first."""
    out = []
    if config.n_cores > 1:
        out.append(("halve cores", replace(config, n_cores=config.n_cores // 2)))
    if config.memory.row_buffer:
        out.append(("row_buffer off", replace(config, memory=replace(config.memory, row_buffer=False))))
    if config.memory.mshr_entries is not None:
        out.append(("mshr off", replace(config, memory=replace(config.memory, mshr_entries=None))))
    if config.memory.writeback_buffer:
        out.append(("wb buffer off", replace(config, memory=replace(config.memory, writeback_buffer=0))))
    if "plru" in (config.l1i.replacement, config.l1d.replacement, config.l2.replacement):
        out.append(("lru replacement", replace(
            config,
            l1i=replace(config.l1i, replacement="lru"),
            l1d=replace(config.l1d, replacement="lru"),
            l2=replace(config.l2, replacement="lru"),
        )))
    if config.onchip_bandwidth_gbs is not None:
        out.append(("noc off", replace(config, onchip_bandwidth_gbs=None)))
    if config.link.compressed:
        out.append(("link compression off", replace(config, link=replace(config.link, compressed=False))))
    if config.prefetch.enabled:
        out.append(("prefetch off", replace(config, prefetch=replace(config.prefetch, enabled=False))))
    if config.prefetch.kind == "pointer":
        out.append(("stride prefetcher", replace(config, prefetch=replace(config.prefetch, kind="stride"))))
    if config.l2.scheme == "bdi":
        out.append(("fpc scheme", replace(config, l2=replace(config.l2, scheme="fpc"))))
    if config.prefetch.adaptive:
        out.append(("adaptive pf off", replace(config, prefetch=replace(config.prefetch, adaptive=False))))
    if config.prefetch.placement != "cache":
        out.append(("cache placement", replace(config, prefetch=replace(config.prefetch, placement="cache"))))
    if config.l2.adaptive_compression:
        out.append(("adaptive compression off", replace(config, l2=replace(config.l2, adaptive_compression=False))))
    if config.l2.compressed:
        out.append(("cache compression off", replace(config, l2=replace(config.l2, compressed=False))))
    if config.attribution:
        out.append(("attribution off", replace(config, attribution=False)))
    return out


def shrink_case(
    config: SystemConfig,
    trace: TracePack,
    *,
    property_index: Optional[int],
    max_attempts: int = 40,
) -> Tuple[SystemConfig, TracePack]:
    """Greedily minimise a failing case while it keeps failing."""

    def still_fails(cfg: SystemConfig, pack: TracePack) -> bool:
        try:
            _check_case(cfg, pack, property_index=property_index)
        except Exception:
            return True
        return False

    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        # fewer events
        if trace.events_per_core >= 64:
            half = trace.events_per_core // 2
            shorter = _pack(config, trace.workload, [ev[:half] for ev in trace.per_core_events])
            attempts += 1
            if still_fails(config, shorter):
                trace = shorter
                improved = True
                continue
        # simpler configuration (fewer cores also truncates the trace)
        for _label, candidate in _simplifications(config):
            pack = trace
            if candidate.n_cores != config.n_cores:
                pack = _pack(candidate, trace.workload, trace.per_core_events[: candidate.n_cores])
            attempts += 1
            if still_fails(candidate, pack):
                config, trace = candidate, pack
                improved = True
                break
            if attempts >= max_attempts:
                break
    return config, trace


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------


def fuzz_one(
    seed: int,
    *,
    events_per_core: int = 600,
    check_properties: bool = True,
    shrink: bool = True,
) -> Optional[FuzzFailure]:
    """Run one fuzz case; return a (shrunk) failure report or None."""
    import random as _random

    rng = _random.Random(0x5EED ^ seed)
    config = random_config(rng)
    workload = rng.choice(all_names())
    trace = random_trace(rng, workload, config.n_cores, events_per_core)
    property_index = seed if check_properties else None
    try:
        _check_case(config, trace, property_index=property_index)
        return None
    except (OracleMismatch, PropertyViolation, AuditViolation, Exception) as exc:
        stage = type(exc).__name__
        message = str(exc)
    if shrink:
        config, trace = shrink_case(config, trace, property_index=property_index)
    return FuzzFailure(
        seed=seed,
        stage=stage,
        error=message,
        config=asdict(config),
        trace_events=[list(map(list, ev)) for ev in trace.per_core_events],
        workload=trace.workload,
        events_per_core=trace.events_per_core,
        shrunk=shrink,
    )


def save_failure(failure: FuzzFailure, corpus: Path = Path(".repro_fuzz")) -> Path:
    root = Path(corpus)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"crash-seed{failure.seed}-{failure.stage.lower()}.json"
    durable.atomic_write(str(path), failure.to_json().encode("utf-8"))
    failure.path = str(path)
    return path


def reproduce(path) -> None:
    """Re-run a persisted fuzz failure; raises if it still reproduces."""
    data = json.loads(Path(path).read_text())
    config = config_from_dict(data["config"])
    events = [[tuple(ev) for ev in core] for core in data["trace_events"]]
    trace = _pack(config, data["workload"], events)
    property_index = data["seed"] if data.get("stage") == "PropertyViolation" else None
    _check_case(config, trace, property_index=property_index)


@dataclass
class FuzzReport:
    cases: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    wall_s: float = 0.0
    budget_exhausted: bool = False


def run_fuzz(
    seeds: int,
    *,
    budget_s: Optional[float] = None,
    start_seed: int = 0,
    events_per_core: int = 600,
    check_properties: bool = True,
    corpus: Path = Path(".repro_fuzz"),
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run ``seeds`` cases (stopping early at ``budget_s`` wall seconds),
    persisting every failure to the crash corpus."""
    t0 = time.monotonic()
    report = FuzzReport()
    for seed in range(start_seed, start_seed + seeds):
        if budget_s is not None and time.monotonic() - t0 >= budget_s:
            report.budget_exhausted = True
            break
        failure = fuzz_one(
            seed, events_per_core=events_per_core, check_properties=check_properties
        )
        report.cases += 1
        if failure is not None:
            path = save_failure(failure, corpus)
            report.failures.append(failure)
            if log:
                log(f"seed {seed}: {failure.stage} -> {path}")
        elif log and report.cases % 25 == 0:
            log(f"{report.cases} case(s) clean")
    report.wall_s = time.monotonic() - t0
    return report
