"""Configuration dataclasses for the CMP simulator.

The defaults mirror Table 1 of the paper: an 8-processor CMP with 64 KB
4-way private L1s, a shared 4 MB 8-banked L2 (8 tags / 4 lines of data
space per set when compressed), 400-cycle DRAM, a 20 GB/s pin link and
Power4-style stride prefetchers.

Because full-scale runs are slow in pure Python, every configuration can
be scaled down with :func:`SystemConfig.scaled`, which divides cache and
link capacities by a common factor while preserving the ratios that drive
the paper's phenomena (working set / cache size, demand / pin bandwidth).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, Optional

from repro import settings

LINE_BYTES = 64
SEGMENT_BYTES = 8
SEGMENTS_PER_LINE = LINE_BYTES // SEGMENT_BYTES  # 8


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one set-associative cache."""

    size_bytes: int
    assoc: int
    line_bytes: int = LINE_BYTES
    hit_latency: int = 3
    # Victim selection within a set: "lru" (true LRU recency stack) or
    # "plru" (tree pseudo-LRU: one direction bit per internal node of a
    # binary tree over the ways, as built in hardware).  PLRU requires a
    # power-of-two associativity.
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ValueError("cache size, associativity and line size must be positive")
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )
        if self.replacement not in ("lru", "plru"):
            raise ValueError(f"unknown replacement {self.replacement!r}")
        if self.replacement == "plru" and self.assoc & (self.assoc - 1):
            raise ValueError("plru replacement requires a power-of-two assoc")

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.assoc


@dataclass(frozen=True)
class L2Config:
    """Shared L2: banked, optionally compressed (decoupled variable-segment).

    When ``compressed`` is True each set holds ``tags_per_set`` address
    tags over ``data_segments_per_set`` 8-byte data segments (the paper's
    8 tags / 64 segments, i.e. at most double the 4-line uncompressed
    capacity).  When False the cache behaves as a plain
    ``uncompressed_assoc``-way cache but still carries ``tags_per_set``
    tags so the adaptive prefetcher can use the spare ones as victim tags
    (Section 5.4 of the paper).
    """

    size_bytes: int = 4 * 1024 * 1024
    n_banks: int = 8
    tags_per_set: int = 8
    uncompressed_assoc: int = 4
    segment_bytes: int = SEGMENT_BYTES
    line_bytes: int = LINE_BYTES
    hit_latency: int = 15
    decompression_cycles: int = 5
    compressed: bool = False
    # ISCA'04 adaptive compression: only compress while the global
    # benefit/cost counter says compression is winning.  For the paper's
    # workloads this always chooses to compress (Section 2), so the
    # default is plain always-compress.
    adaptive_compression: bool = False
    # Which line-compression scheme sizes lines ("fpc", "bdi", "fvc",
    # "selective", "zero_only"); the paper uses FPC throughout.
    scheme: str = "fpc"
    # Victim selection among a set's valid tags: "lru" or tree "plru"
    # (requires a power-of-two tags_per_set; victim-tag recycling order
    # is unaffected — only which valid line is evicted changes).
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.tags_per_set < self.uncompressed_assoc:
            raise ValueError("tags_per_set must be >= uncompressed_assoc")
        if self.size_bytes % (self.n_banks * self.line_bytes * self.uncompressed_assoc) != 0:
            raise ValueError("L2 size must divide evenly into banks and sets")
        if self.replacement not in ("lru", "plru"):
            raise ValueError(f"unknown replacement {self.replacement!r}")
        if self.replacement == "plru" and self.tags_per_set & (self.tags_per_set - 1):
            raise ValueError("plru replacement requires a power-of-two tags_per_set")

    @property
    def data_segments_per_set(self) -> int:
        return self.uncompressed_assoc * (self.line_bytes // self.segment_bytes)

    @property
    def n_lines(self) -> int:
        """Uncompressed line capacity."""
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.uncompressed_assoc

    @property
    def sets_per_bank(self) -> int:
        return self.n_sets // self.n_banks


@dataclass(frozen=True)
class PrefetchConfig:
    """Power4-style stride prefetcher parameters (Table 1)."""

    enabled: bool = False
    adaptive: bool = False
    # "stride" = the paper's Power4-style prefetcher; "sequential" = the
    # Dahlgren adaptive next-line baseline; "pointer" = content-directed
    # pointer-chase prefetching (scan demand fills for heap addresses).
    kind: str = "stride"
    # The paper models separate per-core L2 prefetchers "to reduce stream
    # interference"; True reverts to one shared L2 prefetcher (ablation).
    shared_l2: bool = False
    # Where L2 prefetches land: "cache" (the paper's design, pollution
    # possible) or "stream_buffer" (Jouppi ISCA'90: small per-core FIFOs
    # beside the cache, pollution-free but capacity-limited).
    placement: str = "cache"
    stream_buffers: int = 4
    stream_buffer_depth: int = 4
    filter_entries: int = 32
    confirm_misses: int = 4
    stream_entries: int = 8
    l1_startup: int = 6
    l2_startup: int = 25
    max_nonunit_stride: int = 64
    counter_max: int = 16
    l1_victim_tags: int = 4
    # kind="pointer": max prefetches issued per scanned demand fill at
    # the L2 (the L1s use half, min 1); the adaptive throttle scales the
    # budget down exactly like the stride prefetcher's startup degree.
    pointer_degree: int = 4


@dataclass(frozen=True)
class LinkConfig:
    """Off-chip pin link.  ``bandwidth_gbs=None`` models infinite pins
    (used to measure *bandwidth demand* per the paper's definition)."""

    bandwidth_gbs: Optional[float] = 20.0
    header_bytes: int = 8
    compressed: bool = False


@dataclass(frozen=True)
class MemoryConfig:
    latency_cycles: int = 400
    max_outstanding_per_core: int = 16
    # Optional open-row DRAM model (an extension beyond the paper's fixed
    # 400-cycle latency): accesses hitting a bank's open row pay
    # ``row_hit_latency`` instead.  Streams reward row hits; irregular
    # accesses mostly close rows.
    row_buffer: bool = False
    dram_banks: int = 16
    row_lines: int = 128  # 8 KB rows of 64-byte lines
    row_hit_latency: int = 250
    # First-class per-core MSHR file.  ``None`` keeps the legacy model
    # (the bare per-core DRAM outstanding-request gate above), preserving
    # fingerprints bit-exactly.  An integer N replaces that gate with an
    # N-entry MSHR file per core: entries are held from request issue
    # until the data lands on-chip, demand misses stall for a free entry
    # when the file is full, prefetches are dropped instead, and a miss
    # to a line whose fetch is still in flight coalesces onto the
    # existing entry instead of issuing a second DRAM fetch.
    mshr_entries: Optional[int] = None
    # Bounded write-back buffer between the L2 and memory.  0 keeps the
    # legacy fire-and-forget model (dirty evictions hit the pin link
    # immediately); N > 0 holds up to N in-flight writebacks and delays
    # further evictions' link traffic until a slot drains.
    writeback_buffer: int = 0

    def __post_init__(self) -> None:
        if self.mshr_entries is not None and self.mshr_entries <= 0:
            raise ValueError("mshr_entries must be positive (or None)")
        if self.writeback_buffer < 0:
            raise ValueError("writeback_buffer must be >= 0")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level CMP configuration (Table 1 defaults, full scale)."""

    n_cores: int = 8
    clock_ghz: float = 5.0
    # Table 1: "320 GB/sec. total on-chip bandwidth (from/to L1's)".
    # None disables the on-chip network model; at 320 GB/s it is almost
    # never the bottleneck (test_ablation_noc quantifies this), so the
    # default keeps it off for speed and calibration stability.
    onchip_bandwidth_gbs: Optional[float] = None
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(64 * 1024, 4))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(64 * 1024, 4))
    l2: L2Config = field(default_factory=L2Config)
    link: LinkConfig = field(default_factory=LinkConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    # Opt-in invariant auditing (repro.obs.audit): periodically verify
    # model invariants (inclusion, directory consistency, segment
    # budgets, stats conservation) during simulation (``repro run
    # --audit``).  ``audit_interval`` is the cadence (trace events per
    # core-interleaved step between full checks).
    # Auditing never changes simulation results — only whether an
    # :class:`~repro.obs.audit.AuditViolation` can interrupt a run.
    audit: bool = False
    audit_interval: int = 4096
    # Opt-in observability (repro.obs.trace / repro.obs.metrics):
    # ``trace`` records simulated-time spans and instants for Perfetto
    # export; ``metrics`` samples a time series of IPC/miss-rate/
    # compression/link/prefetch metrics every ``metrics_interval``
    # simulated cycles (``repro run --trace`` / ``--metrics``).  Both
    # layers are read-only: results are bit-identical with them on or
    # off.
    trace: bool = False
    metrics: bool = False
    metrics_interval: int = 5000
    # Opt-in causal attribution (repro.obs.attribution): tag every
    # cached line with its inserter, record every eviction's cause, and
    # classify each demand miss online into compulsory / capacity /
    # pollution / expansion via per-set shadow victim-tag filters.
    # ``repro run --why`` turns it on.  Read-only like trace/metrics:
    # results are bit-identical with attribution on or off.
    attribution: bool = False
    # The simulation engine (core.hierarchy driven by core.system's
    # event loop).  A class constant, not a field; run headers print it.
    engine: ClassVar[str] = "ref"

    def __post_init__(self) -> None:
        if self.audit_interval <= 0:
            raise ValueError("audit_interval must be positive")
        if self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")

    @property
    def observed(self) -> bool:
        """Whether any observer (audit, trace, metrics, attribution) is on."""
        return self.audit or self.trace or self.metrics or self.attribution

    @property
    def cache_compression(self) -> bool:
        return self.l2.compressed

    @property
    def link_compression(self) -> bool:
        return self.link.compressed

    def scaled(self, factor: int) -> "SystemConfig":
        """Return a copy with cache capacities divided by ``factor``.

        Workload footprints are expressed relative to cache sizes, so
        miss *rates* — and therefore bytes-per-instruction and pin
        bandwidth demand — are preserved under scaling.  The link, DRAM
        latency, core count and prefetcher parameters are deliberately
        left unchanged: scaling them would distort the demand/bandwidth
        ratio the paper's contention results depend on.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if factor == 1:
            return self
        return replace(
            self,
            l1i=replace(self.l1i, size_bytes=self.l1i.size_bytes // factor),
            l1d=replace(self.l1d, size_bytes=self.l1d.size_bytes // factor),
            l2=replace(self.l2, size_bytes=self.l2.size_bytes // factor),
        )

    def with_features(
        self,
        *,
        cache_compression: Optional[bool] = None,
        link_compression: Optional[bool] = None,
        prefetching: Optional[bool] = None,
        adaptive: Optional[bool] = None,
    ) -> "SystemConfig":
        """Return a copy with the paper's four feature knobs toggled."""
        cfg = self
        if cache_compression is not None:
            cfg = replace(cfg, l2=replace(cfg.l2, compressed=cache_compression))
        if link_compression is not None:
            cfg = replace(cfg, link=replace(cfg.link, compressed=link_compression))
        if prefetching is not None:
            cfg = replace(cfg, prefetch=replace(cfg.prefetch, enabled=prefetching))
        if adaptive is not None:
            cfg = replace(cfg, prefetch=replace(cfg.prefetch, adaptive=adaptive))
        return cfg

    def describe(self) -> str:
        """One-line human-readable summary of the feature combination."""
        parts = [f"{self.n_cores}p"]
        parts.append("cacheC" if self.cache_compression else "-")
        parts.append("linkC" if self.link_compression else "-")
        if self.prefetch.enabled:
            parts.append("adaptive-pf" if self.prefetch.adaptive else "pf")
        else:
            parts.append("-")
        bw = self.link.bandwidth_gbs
        parts.append("infBW" if bw is None else f"{bw:g}GB/s")
        return "/".join(parts)


def bytes_per_cycle(bandwidth_gbs: float, clock_ghz: float) -> float:
    """Convert GB/s of pin bandwidth to bytes per core cycle."""
    return bandwidth_gbs / clock_ghz


def asdict(cfg: SystemConfig) -> dict:
    """Plain-dict view of a config (for logging / result records)."""
    return dataclasses.asdict(cfg)


def config_from_dict(data: dict) -> SystemConfig:
    """Inverse of :func:`asdict` — rebuild a :class:`SystemConfig`.

    The fuzzing harness persists failing configurations as JSON
    (:mod:`repro.verify.fuzz`); this reconstructs them bit-exactly,
    re-running the dataclass validators in the process.  Keys the
    config no longer has (the old ``"engine"`` selector) are ignored.
    """
    return SystemConfig(
        n_cores=data["n_cores"],
        clock_ghz=data["clock_ghz"],
        onchip_bandwidth_gbs=data["onchip_bandwidth_gbs"],
        l1i=CacheConfig(**data["l1i"]),
        l1d=CacheConfig(**data["l1d"]),
        l2=L2Config(**data["l2"]),
        link=LinkConfig(**data["link"]),
        memory=MemoryConfig(**data["memory"]),
        prefetch=PrefetchConfig(**data["prefetch"]),
        audit=data.get("audit", False),
        audit_interval=data.get("audit_interval", 4096),
        trace=data.get("trace", False),
        metrics=data.get("metrics", False),
        metrics_interval=data.get("metrics_interval", 5000),
        attribution=data.get("attribution", False),
    )


#: The paper's feature combinations, by short name.
CONFIG_FEATURES: Dict[str, Dict[str, bool]] = {
    "base": dict(cache_compression=False, link_compression=False, prefetching=False, adaptive=False),
    "pref": dict(cache_compression=False, link_compression=False, prefetching=True, adaptive=False),
    "adaptive": dict(cache_compression=False, link_compression=False, prefetching=True, adaptive=True),
    "cache_compr": dict(cache_compression=True, link_compression=False, prefetching=False, adaptive=False),
    "link_compr": dict(cache_compression=False, link_compression=True, prefetching=False, adaptive=False),
    "compr": dict(cache_compression=True, link_compression=True, prefetching=False, adaptive=False),
    "pref_compr": dict(cache_compression=True, link_compression=True, prefetching=True, adaptive=False),
    "adaptive_compr": dict(cache_compression=True, link_compression=True, prefetching=True, adaptive=True),
}


def config_features(key: str) -> Dict[str, bool]:
    """The feature switches of the combination named ``key``; an unknown
    key raises ``KeyError``."""
    if key not in CONFIG_FEATURES:
        raise KeyError(f"unknown config {key!r}; choose from {', '.join(CONFIG_FEATURES)}")
    return CONFIG_FEATURES[key]


def make_config(
    key: str,
    *,
    n_cores: int = 8,
    scale: Optional[int] = None,
    bandwidth_gbs: Optional[float] = 20.0,
    infinite_bandwidth: bool = False,
) -> SystemConfig:
    """Build the Table 1 system with one of the paper's feature combos.

    ``infinite_bandwidth`` selects the paper's bandwidth-*demand*
    measurement configuration (Figures 4 and 7).
    """
    features = config_features(key)
    cfg = SystemConfig(n_cores=n_cores)
    cfg = cfg.scaled(scale if scale is not None else settings.get("REPRO_SCALE"))
    bw = None if infinite_bandwidth else bandwidth_gbs
    cfg = replace(cfg, link=replace(cfg.link, bandwidth_gbs=bw))
    return cfg.with_features(**features)
