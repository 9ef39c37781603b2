"""Export simulation results to JSON / CSV for external analysis.

Two serialisation depths live here:

* the flat :data:`EXPORT_FIELDS` row (:func:`result_to_dict`) for
  spreadsheets and plotting scripts, which drops the raw counters; and
* the *full* round-trip form (:func:`result_to_full_dict` /
  :func:`result_from_dict`) that preserves every counter bit-exactly —
  the on-disk result cache (:mod:`repro.core.diskcache`) is built on it.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, Iterable, List, Tuple

from repro.core.results import SimulationResult
from repro.digest import stable_hash
from repro.prefetch.taxonomy import TaxonomyCounts
from repro.stats.counters import CacheStats, CompressionStats, LinkStats, PrefetchStats

#: The flat metric set every exported row carries.
EXPORT_FIELDS = (
    "workload",
    "config",
    "seed",
    "elapsed_cycles",
    "instructions",
    "ipc",
    "l1i_miss_rate",
    "l1d_miss_rate",
    "l2_miss_rate",
    "l2_demand_misses",
    "bandwidth_gbs",
    "compression_ratio",
    "link_bytes",
    "pf_l2_issued",
    "pf_l2_dropped",
    "pf_l2_coverage",
    "pf_l2_accuracy",
)


def result_to_dict(result: SimulationResult) -> Dict[str, object]:
    l2_report = result.prefetcher_report("l2")
    row: Dict[str, object] = {
        "workload": result.workload,
        "config": result.config_name,
        "seed": result.seed,
        "elapsed_cycles": result.elapsed_cycles,
        "instructions": result.instructions,
        "ipc": result.ipc,
        "l1i_miss_rate": result.l1i.miss_rate,
        "l1d_miss_rate": result.l1d.miss_rate,
        "l2_miss_rate": result.l2.miss_rate,
        "l2_demand_misses": result.l2.demand_misses,
        "bandwidth_gbs": result.bandwidth_gbs,
        "compression_ratio": result.compression_ratio,
        "link_bytes": result.link.bytes_total,
        "pf_l2_issued": l2_report.issued,
        "pf_l2_dropped": result.prefetch["l2"].dropped,
        "pf_l2_coverage": l2_report.coverage,
        "pf_l2_accuracy": l2_report.accuracy,
    }
    # The extras dict rides along so markers like skipped trace
    # records (``skipped_records``) stay visible to JSON
    # consumers; the CSV form keeps the flat EXPORT_FIELDS shape.
    if result.extra:
        row["extra"] = dict(result.extra)
    return row


def results_to_json(results: Iterable[SimulationResult], indent: int = 2) -> str:
    return json.dumps([result_to_dict(r) for r in results], indent=indent)


# ---------------------------------------------------------------------------
# full round-trip serialisation (used by the disk cache)
# ---------------------------------------------------------------------------

#: Bump when the full-dict layout changes; consumers key their storage on it.
RESULT_SCHEMA_VERSION = 1


def _counters_to_dict(obj) -> Dict[str, object]:
    return {f: getattr(obj, f) for f in obj.__dataclass_fields__}


def result_to_full_dict(result: SimulationResult) -> Dict[str, object]:
    """Serialise a result completely (floats survive JSON bit-exactly)."""
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "workload": result.workload,
        "config_name": result.config_name,
        "seed": result.seed,
        "elapsed_cycles": result.elapsed_cycles,
        "instructions": result.instructions,
        "clock_ghz": result.clock_ghz,
        "events": result.events,
        "l1i": _counters_to_dict(result.l1i),
        "l1d": _counters_to_dict(result.l1d),
        "l2": _counters_to_dict(result.l2),
        "prefetch": {k: _counters_to_dict(v) for k, v in result.prefetch.items()},
        "link": _counters_to_dict(result.link),
        "compression": _counters_to_dict(result.compression),
        "extra": dict(result.extra),
        "taxonomy": {k: _counters_to_dict(v) for k, v in result.taxonomy.items()},
        "latency": {k: dict(v) for k, v in result.latency.items()},
    }


def result_from_dict(data: Dict[str, object]) -> SimulationResult:
    """Inverse of :func:`result_to_full_dict`."""
    schema = data.get("schema")
    if schema != RESULT_SCHEMA_VERSION:
        raise ValueError(f"unsupported result schema {schema!r}")
    return SimulationResult(
        workload=data["workload"],
        config_name=data["config_name"],
        seed=data["seed"],
        elapsed_cycles=data["elapsed_cycles"],
        instructions=data["instructions"],
        l1i=CacheStats(**data["l1i"]),
        l1d=CacheStats(**data["l1d"]),
        l2=CacheStats(**data["l2"]),
        prefetch={k: PrefetchStats(**v) for k, v in data["prefetch"].items()},
        link=LinkStats(**data["link"]),
        compression=CompressionStats(**data["compression"]),
        clock_ghz=data["clock_ghz"],
        events=data["events"],
        extra=dict(data["extra"]),
        taxonomy={k: TaxonomyCounts(**v) for k, v in data["taxonomy"].items()},
        latency={k: dict(v) for k, v in data["latency"].items()},
    )


def diff_full_dicts(
    a: Dict[str, object],
    b: Dict[str, object],
    ignore: Iterable[str] = (),
) -> List[Tuple[str, object, object]]:
    """Recursively diff two :func:`result_to_full_dict` trees.

    Returns ``(dotted.path, a_value, b_value)`` triples for every leaf
    that differs, skipping paths listed in ``ignore`` (exact dotted
    paths).  The verification subsystem uses this to state metamorphic
    properties as "these two runs differ in exactly this set of
    counters" rather than as opaque fingerprint comparisons.
    """
    skip = frozenset(ignore)
    out: List[Tuple[str, object, object]] = []

    def walk(x: object, y: object, path: str) -> None:
        if path in skip:
            return
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(set(x) | set(y)):
                walk(x.get(key), y.get(key), f"{path}.{key}" if path else str(key))
        elif x != y:
            out.append((path, x, y))

    walk(a, b, "")
    return out


def result_fingerprint(result: SimulationResult) -> str:
    """SHA-256 over the canonical JSON of the full result.

    Two results fingerprint identically iff every counter, float and
    histogram bucket is bit-identical (floats round-trip exactly through
    ``repr``).  The audit subsystem uses this to prove that enabling
    ``REPRO_AUDIT`` does not perturb simulations, and the golden-snapshot
    test uses it to detect behavioural drift.

    ``attr_*`` extras are stripped before hashing: causal attribution
    (:mod:`repro.obs.attribution`) records observations *about* the run,
    and stripping its rows here is what lets the on/off bit-identity
    contract be stated as plain fingerprint equality.  The attribution
    rows themselves are pinned by full-dict hashes in the frozen-case
    suite (``tests/test_engine_equivalence.py``).
    """
    full = result_to_full_dict(result)
    full["extra"] = {k: v for k, v in full["extra"].items() if not k.startswith("attr_")}
    return stable_hash(full)


def results_to_csv(results: Iterable[SimulationResult]) -> str:
    rows: List[Dict[str, object]] = [result_to_dict(r) for r in results]
    out = io.StringIO()
    # The flat CSV schema stays EXPORT_FIELDS; the open-ended "extra"
    # mapping is JSON-only.
    writer = csv.DictWriter(out, fieldnames=list(EXPORT_FIELDS), extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()
