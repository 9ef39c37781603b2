"""Metamorphic properties of the simulator.

Where the functional oracle (:mod:`repro.verify.oracle`) checks one run
against an independent model, the properties here check *pairs* of runs
against each other: configurations that are different programs but must
be the same machine.  Each check raises :class:`PropertyViolation` with
a counter-level diff when the relation fails.

The relations, and why each must hold:

``compression_noop``
    A compressed L2 whose tag count equals its uncompressed
    associativity and whose decompression penalty is zero can never
    pack more lines than a plain cache (at most ``assoc`` lines fit
    either way, and ``assoc`` lines of <= 8 segments always fit in the
    ``assoc * 8`` data segments), so the two configurations must be
    event-for-event identical.  The *only* permitted differences are
    labels of short lines that change no timing: the
    ``l2.compressed_hits`` classification counter (the decompression
    penalty is zero) and, with attribution on, the ``attr_comp_fills`` /
    ``attr_comp_bytes_saved`` ledger rows, which count fills stored
    short.  The attribution rows that describe behaviour
    (``attr_comp_avoided_hits``, ``attr_comp_expansion_evictions``) must
    still match.

``degree_zero``
    A stride prefetcher with both startup degrees at zero allocates
    streams that contain no prefetches, so it must be observationally
    identical to no prefetcher at all — the full result fingerprint,
    prefetch counters included, must match.

``reset_conservation``
    ``reset_stats`` zeroes counters but not machine state, so for every
    additive counter C, measuring after a warmup must equal the
    difference of two measurements without the reset:
    C[warm+measure] - C[warm] == C[measure after reset].  Sampled
    occupancy statistics (``compression.samples``/``lines_held_sum``)
    are excluded: the sample cadence restarts at reset, so the two
    runs sample at different points.  Float accumulators are excluded
    because float addition is not associative.

``bandwidth_monotonicity``
    Raising the pin-link bandwidth (keeping everything else fixed) can
    only shorten queues, so runtime must not increase.  The relation is
    exact while the machine's *decisions* are timing-independent, but
    prefetching closes a feedback loop through time: which prefetches
    are dropped at the DRAM outstanding-request gate depends on when
    they are issued, so a faster link can admit prefetches that pollute
    the cache and lengthen the run slightly (sub-1% in every case
    observed — the same contention effect the paper studies).  The
    default tolerance therefore auto-selects: exact (0) when the
    config has prefetching disabled, 5% when the prefetch feedback
    loop is live.  Pass ``tolerance`` explicitly to tighten or loosen.

``determinism``
    Two fresh systems with the same seed must produce bit-identical
    results, and a result must survive the full-dict JSON round trip
    (the on-disk cache's serialisation) with its fingerprint intact.

``attribution_noop``
    The causal-attribution tracker (:mod:`repro.obs.attribution`) is
    read-only by contract: the same point run with ``attribution=True``
    must fingerprint identically to the plain run (``attr_*`` extras are
    stripped by the fingerprint), and its per-event ledgers must
    reconcile exactly with the stats counters (attributed misses sum to
    ``l2.demand_misses``, eviction causes to the eviction totals).
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import settings
from repro.core.results import SimulationResult
from repro.core.system import CMPSystem
from repro.params import SystemConfig
from repro.report.export import (
    diff_full_dicts,
    result_fingerprint,
    result_from_dict,
    result_to_full_dict,
)


class PropertyViolation(AssertionError):
    """A metamorphic relation between two runs failed."""


def _render(problems: Sequence[Tuple[str, object, object]], a: str, b: str) -> str:
    lines = [f"  {path}: {a}={va!r} {b}={vb!r}" for path, va, vb in problems[:20]]
    if len(problems) > 20:
        lines.append(f"  ... and {len(problems) - 20} more")
    return "\n".join(lines)


def _simulate(
    config: SystemConfig,
    workload: Optional[str],
    trace,
    seed: int,
    events: int,
    warmup: int,
) -> SimulationResult:
    if trace is not None:
        system = CMPSystem(config, trace=trace)
    else:
        system = CMPSystem(config, workload, seed=seed)
    return system.run(events, warmup_events=warmup, config_name="property")


# ---------------------------------------------------------------------------
# compression disabled == infinite segment budget
# ---------------------------------------------------------------------------

#: The counters the compression-noop pair may disagree on: they only
#: label lines stored short in the compressed configuration (hits on
#: them, and with attribution on, fills of them and the bytes they
#: save); with decompression_cycles=0 the labels change no timing.
COMPRESSION_NOOP_IGNORE = (
    "l2.compressed_hits",
    "extra.attr_comp_bytes_saved",
    "extra.attr_comp_fills",
)


def check_compression_noop(
    config: SystemConfig,
    workload: Optional[str] = None,
    *,
    trace=None,
    seed: int = 0,
    events: int = 1200,
    warmup: Optional[int] = None,
) -> None:
    """Compressed L2 with tags == assoc and free decompression must
    behave exactly like the uncompressed cache."""
    warmup = events if warmup is None else warmup
    narrow = replace(
        config.l2,
        tags_per_set=config.l2.uncompressed_assoc,
        decompression_cycles=0,
        adaptive_compression=False,
    )
    compressed = replace(config, l2=replace(narrow, compressed=True))
    plain = replace(config, l2=replace(narrow, compressed=False))
    ra = _simulate(compressed, workload, trace, seed, events, warmup)
    rb = _simulate(plain, workload, trace, seed, events, warmup)
    problems = diff_full_dicts(
        result_to_full_dict(ra), result_to_full_dict(rb), ignore=COMPRESSION_NOOP_IGNORE
    )
    if problems:
        raise PropertyViolation(
            "compression_noop: compressed cache with no extra tags diverged "
            f"from the uncompressed cache ({len(problems)} counter(s)):\n"
            + _render(problems, "compressed", "plain")
        )


# ---------------------------------------------------------------------------
# prefetch degree 0 == prefetcher off
# ---------------------------------------------------------------------------


def check_degree_zero(
    config: SystemConfig,
    workload: Optional[str] = None,
    *,
    trace=None,
    seed: int = 0,
    events: int = 1200,
    warmup: Optional[int] = None,
) -> None:
    """A stride prefetcher with zero startup degree must equal no
    prefetcher: identical fingerprints, prefetch counters included."""
    warmup = events if warmup is None else warmup
    degree0 = replace(
        config,
        prefetch=replace(
            config.prefetch, enabled=True, kind="stride", l1_startup=0, l2_startup=0,
            adaptive=False,
        ),
    )
    off = replace(
        config, prefetch=replace(config.prefetch, enabled=False, adaptive=False)
    )
    ra = _simulate(degree0, workload, trace, seed, events, warmup)
    rb = _simulate(off, workload, trace, seed, events, warmup)
    problems = diff_full_dicts(result_to_full_dict(ra), result_to_full_dict(rb))
    if problems:
        raise PropertyViolation(
            "degree_zero: zero-degree stride prefetcher diverged from "
            f"prefetching disabled ({len(problems)} counter(s)):\n"
            + _render(problems, "degree0", "off")
        )


# ---------------------------------------------------------------------------
# stats conservation across reset_stats
# ---------------------------------------------------------------------------

_CACHE_FIELDS = (
    "demand_hits", "demand_misses", "partial_hits", "prefetch_hits",
    "compressed_hits", "writebacks", "evictions", "upgrades",
    "coherence_invalidations",
)
_PF_FIELDS = (
    "issued", "dropped", "useful", "useless", "harmful",
    "streams_allocated", "throttled",
)
_LINK_FIELDS = (
    "bytes_total", "bytes_data", "bytes_header", "messages",
    "data_messages", "flits", "uncompressed_equiv_bytes",
)


def counter_snapshot(system: CMPSystem) -> Dict[str, int]:
    """Every additive integer counter of a live system, flattened.

    Covers cache/prefetch/link/DRAM/stream-buffer/compression-policy
    counters, latency-histogram bucket counts and per-core retirement
    counts.  Excluded by construction: float accumulators
    (``queue_cycles``, histogram ``total``, stall cycles), clocks, the
    adaptive controllers' persistent state, and the occupancy-sampling
    fields whose cadence restarts at ``reset_stats``.
    """
    h = system.hierarchy
    snap: Dict[str, int] = {}
    for name, stats in (("l1i", h.l1i_stats), ("l1d", h.l1d_stats), ("l2", h.l2_stats)):
        for field in _CACHE_FIELDS:
            snap[f"{name}.{field}"] = getattr(stats, field)
    for key, stats in h.pf_stats.items():
        for field in _PF_FIELDS:
            snap[f"prefetch.{key}.{field}"] = getattr(stats, field)
    for field in _LINK_FIELDS:
        snap[f"link.{field}"] = getattr(h.link.stats, field)
    snap["dram.demand_requests"] = h.dram.demand_requests
    snap["dram.prefetch_requests"] = h.dram.prefetch_requests
    snap["dram.stalled_issues"] = h.dram.stalled_issues
    comp = h.compression_stats
    snap["compression.compressed_lines"] = comp.compressed_lines
    snap["compression.uncompressed_lines"] = comp.uncompressed_lines
    snap["compression.segment_sum"] = comp.segment_sum
    policy = h.compression_policy
    snap["policy.avoided_miss_events"] = policy.avoided_miss_events
    snap["policy.penalized_hit_events"] = policy.penalized_hit_events
    if h.stream_buffers is not None:
        for i, pool in enumerate(h.stream_buffers):
            snap[f"sb.{i}.hits"] = pool.hits
            snap[f"sb.{i}.insertions"] = pool.insertions
            snap[f"sb.{i}.overflows"] = pool.overflows
    for name, hist in h.latency_hist.items():
        snap[f"latency.{name}.count"] = hist.count
        for bucket, count in enumerate(hist._buckets):
            if count:
                snap[f"latency.{name}.bucket{bucket}"] = count
    for core in system.cores:
        snap[f"core.{core.core_id}.instructions"] = core.stats.instructions
        snap[f"core.{core.core_id}.data_accesses"] = core.stats.data_accesses
        snap[f"core.{core.core_id}.ifetch_accesses"] = core.stats.ifetch_accesses
    return snap


def check_reset_conservation(
    config: SystemConfig,
    workload: Optional[str] = None,
    *,
    trace=None,
    seed: int = 0,
    warmup: int = 900,
    events: int = 1100,
) -> None:
    """C[measure] == C[warm+measure] - C[warm] for every additive counter.

    Runs the same machine twice — once straight through, once with a
    ``reset_stats`` between the phases — and checks that the reset
    removed exactly the warmup contribution from every counter.
    """

    def build() -> CMPSystem:
        if trace is not None:
            return CMPSystem(config, trace=trace)
        return CMPSystem(config, workload, seed=seed)

    straight = build()
    straight._run_events(warmup)
    after_warm = counter_snapshot(straight)
    straight._run_events(events)
    after_both = counter_snapshot(straight)

    with_reset = build()
    with_reset._run_events(warmup)
    with_reset.reset_stats()
    with_reset._run_events(events)
    measured = counter_snapshot(with_reset)

    keys = set(after_both) | set(measured)
    problems = [
        (key, measured.get(key, 0), after_both.get(key, 0) - after_warm.get(key, 0))
        for key in sorted(keys)
        if measured.get(key, 0) != after_both.get(key, 0) - after_warm.get(key, 0)
    ]
    if problems:
        raise PropertyViolation(
            "reset_conservation: counters not conserved across reset_stats "
            f"({len(problems)} counter(s)):\n"
            + _render(problems, "measured", "difference")
        )


# ---------------------------------------------------------------------------
# more bandwidth never hurts
# ---------------------------------------------------------------------------


def check_bandwidth_monotonicity(
    config: SystemConfig,
    workload: Optional[str] = None,
    *,
    trace=None,
    seed: int = 0,
    events: int = 1200,
    warmup: Optional[int] = None,
    factors: Sequence[float] = (1.0, 2.0),
    include_infinite: bool = True,
    tolerance: Optional[float] = None,
) -> None:
    """Elapsed cycles must be non-increasing as link bandwidth grows.

    ``factors`` multiply the configured bandwidth; ``include_infinite``
    appends the no-link-limit machine as the fastest point.
    ``tolerance`` is relative; None auto-selects exact (0.0) for
    prefetch-off configs and 0.05 when prefetching is enabled, whose
    drop-gate timing feedback makes the relation approximate (see the
    module docstring).
    """
    warmup = events if warmup is None else warmup
    if tolerance is None:
        tolerance = 0.05 if config.prefetch.enabled else 0.0
    base_bw = config.link.bandwidth_gbs
    if base_bw is None:
        raise ValueError("config already has infinite bandwidth; nothing to scale")
    bandwidths: List[Optional[float]] = [base_bw * f for f in factors]
    if include_infinite:
        bandwidths.append(None)
    elapsed: List[Tuple[Optional[float], float]] = []
    for bw in bandwidths:
        cfg = replace(config, link=replace(config.link, bandwidth_gbs=bw))
        result = _simulate(cfg, workload, trace, seed, events, warmup)
        elapsed.append((bw, result.elapsed_cycles))
    problems = []
    for (bw_a, cyc_a), (bw_b, cyc_b) in zip(elapsed, elapsed[1:]):
        if cyc_b > cyc_a * (1.0 + tolerance):
            problems.append((f"{bw_a}->{bw_b} GB/s", cyc_a, cyc_b))
    if problems:
        raise PropertyViolation(
            "bandwidth_monotonicity: raising link bandwidth increased runtime:\n"
            + _render(problems, "slower_link_cycles", "faster_link_cycles")
        )


# ---------------------------------------------------------------------------
# determinism and serialisation round trip
# ---------------------------------------------------------------------------


def check_determinism(
    config: SystemConfig,
    workload: Optional[str] = None,
    *,
    trace=None,
    seed: int = 0,
    events: int = 1200,
    warmup: Optional[int] = None,
) -> None:
    """Same seed, same machine: two fresh runs must fingerprint
    identically, and the full-dict JSON round trip (the disk cache's
    wire format) must preserve the fingerprint bit-exactly."""
    warmup = events if warmup is None else warmup
    ra = _simulate(config, workload, trace, seed, events, warmup)
    rb = _simulate(config, workload, trace, seed, events, warmup)
    fa, fb = result_fingerprint(ra), result_fingerprint(rb)
    if fa != fb:
        problems = diff_full_dicts(result_to_full_dict(ra), result_to_full_dict(rb))
        raise PropertyViolation(
            f"determinism: two identical runs diverged ({len(problems)} counter(s)):\n"
            + _render(problems, "first", "second")
        )
    wire = json.dumps(result_to_full_dict(ra), sort_keys=True)
    restored = result_from_dict(json.loads(wire))
    if result_fingerprint(restored) != fa:
        problems = diff_full_dicts(result_to_full_dict(ra), result_to_full_dict(restored))
        raise PropertyViolation(
            "determinism: JSON round trip changed the result "
            f"({len(problems)} counter(s)):\n" + _render(problems, "live", "restored")
        )


# ---------------------------------------------------------------------------
# attribution is read-only and reconciles exactly
# ---------------------------------------------------------------------------


def check_attribution_noop(
    config: SystemConfig,
    workload: Optional[str] = None,
    *,
    trace=None,
    seed: int = 0,
    events: int = 1200,
    warmup: Optional[int] = None,
) -> None:
    """Attribution on must fingerprint identically to attribution off,
    and the tracker's ledgers must reconcile exactly with the stats."""
    warmup = events if warmup is None else warmup
    off = replace(config, attribution=False)
    on = replace(config, attribution=True)
    # An ambient REPRO_ATTRIBUTION would override both sides of the
    # pair (turning A/B into A/A); suspend it for the comparison.
    with settings.suspended("REPRO_ATTRIBUTION"):
        r_off = _simulate(off, workload, trace, seed, events, warmup)
        if trace is not None:
            system = CMPSystem(on, trace=trace)
        else:
            system = CMPSystem(on, workload, seed=seed)
        r_on = system.run(events, warmup_events=warmup, config_name="property")
    f_off, f_on = result_fingerprint(r_off), result_fingerprint(r_on)
    if f_off != f_on:
        ignore = tuple(
            f"extra.{k}" for k in result_to_full_dict(r_on)["extra"]
            if k.startswith("attr_")
        )
        problems = diff_full_dicts(
            result_to_full_dict(r_off), result_to_full_dict(r_on), ignore=ignore
        )
        raise PropertyViolation(
            "attribution_noop: enabling attribution changed the result "
            f"({len(problems)} counter(s)):\n" + _render(problems, "off", "on")
        )
    tracker = getattr(system.observer, "attribution", None)
    if tracker is None:
        raise PropertyViolation(
            "attribution_noop: attribution=True did not attach a tracker"
        )
    problems = tracker.reconcile_result(r_on)
    if problems:
        raise PropertyViolation(
            "attribution_noop: ledgers do not reconcile with the stats "
            "counters:\n" + "\n".join(f"  {p}" for p in problems)
        )


#: Name -> check, for the CLI and the fuzz harness.  Each check accepts
#: (config, workload, *, trace=..., seed=..., events=..., warmup=...).
ALL_PROPERTIES = {
    "compression_noop": check_compression_noop,
    "degree_zero": check_degree_zero,
    "reset_conservation": check_reset_conservation,
    "bandwidth_monotonicity": check_bandwidth_monotonicity,
    "determinism": check_determinism,
    "attribution_noop": check_attribution_noop,
}
