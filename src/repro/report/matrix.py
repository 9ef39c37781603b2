"""Prefetcher x compression interaction matrix (EQ 5 over policy pairs).

The paper's Table 5 fixes one prefetcher (stride) and one compression
scheme (FPC) and reports the interaction per workload.  This module
generalises that to the full policy cross product: every registered
prefetcher family against every compression scheme, each pair scored
with EQ 5 against the *same* shared baseline::

    Speedup(P, C) = Speedup(P) * Speedup(C) * (1 + Interaction(P, C))

Per (workload, prefetcher, scheme) cell, four runs are needed — base,
prefetch-only, compression-only, both — but the single-policy runs are
shared across the row/column, so a full N x M matrix over one workload
costs ``1 + N' + M' + N'*M'`` simulations (primes exclude the ``none``
variants, whose pairs are degenerate and score an exact 0.0).

``repro matrix`` is the CLI front end; it renders the ranked cell
table and optionally writes the full matrix as CSV.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.compression.schemes import build_scheme
from repro.core.experiment import completed, run_points
from repro.core.interaction import interaction_coefficient, speedup
from repro.core.runner import OffsetProgress
from repro.obs import telemetry as _telemetry
from repro.obs.attribution import AttributionLedger
from repro.params import SystemConfig

#: Prefetcher family variants the matrix sweeps ("none" = row baseline).
PREFETCHERS: Tuple[str, ...] = ("none", "stride", "sequential", "pointer")

#: Compression scheme variants ("none" = column baseline).
SCHEMES: Tuple[str, ...] = ("none", "fpc", "bdi")


@dataclass(frozen=True)
class MatrixCell:
    """One (workload, prefetcher, scheme) pair's EQ 5 decomposition."""

    workload: str
    prefetcher: str
    scheme: str
    speedup_pref: float
    speedup_compr: float
    speedup_both: float
    # Causal-attribution annotation (``run_matrix(attribution=True)``):
    # the measured share of the *both*-run's demand misses attributed to
    # prefetch pollution / compression expansion.  None without it.
    pollution_share: Optional[float] = None
    expansion_share: Optional[float] = None

    @property
    def interaction(self) -> float:
        return interaction_coefficient(
            self.speedup_both, self.speedup_pref, self.speedup_compr
        )


@dataclass(frozen=True)
class MatrixReport:
    """All cells of one matrix sweep, ranked by interaction (best first)."""

    cells: Tuple[MatrixCell, ...]
    workloads: Tuple[str, ...]
    prefetchers: Tuple[str, ...]
    schemes: Tuple[str, ...]
    simulations: int
    attribution: bool = False

    def ranked(self) -> List[MatrixCell]:
        return sorted(
            self.cells,
            key=lambda c: (-c.interaction, c.workload, c.prefetcher, c.scheme),
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        header = (
            "workload,prefetcher,scheme,speedup_pref,speedup_compr,"
            "speedup_both,interaction"
        )
        if self.attribution:
            header += ",pollution_share,expansion_share"
        out.write(header + "\n")
        for c in self.ranked():
            row = (
                f"{c.workload},{c.prefetcher},{c.scheme},"
                f"{c.speedup_pref:.6f},{c.speedup_compr:.6f},"
                f"{c.speedup_both:.6f},{c.interaction:.6f}"
            )
            if self.attribution:
                pol = "" if c.pollution_share is None else f"{c.pollution_share:.6f}"
                exp = "" if c.expansion_share is None else f"{c.expansion_share:.6f}"
                row += f",{pol},{exp}"
            out.write(row + "\n")
        return out.getvalue()


def pair_config(base: SystemConfig, prefetcher: str, scheme: str) -> SystemConfig:
    """The base config with one prefetcher family and one scheme enabled.

    Mirrors the paper's feature combos: prefetching toggles the L1/L2
    prefetchers with the given kind; compression toggles both cache and
    link compression with the given scheme (the ``compr`` combo).
    """
    cfg = base
    if prefetcher != "none":
        cfg = replace(cfg, prefetch=replace(cfg.prefetch, enabled=True, kind=prefetcher))
    if scheme != "none":
        cfg = replace(
            cfg,
            l2=replace(cfg.l2, compressed=True, scheme=scheme),
            link=replace(cfg.link, compressed=True),
        )
    return cfg


def matrix_pairs(
    prefetchers: Sequence[str], schemes: Sequence[str]
) -> List[Tuple[str, str]]:
    """The distinct (prefetcher, scheme) runs one workload's cells need,
    baseline first: the matrix's batch per workload."""
    pairs = {("none", "none"): None}
    for prefetcher in prefetchers:
        for scheme in schemes:
            pairs[(prefetcher, "none")] = None
            pairs[("none", scheme)] = None
            pairs[(prefetcher, scheme)] = None
    return list(pairs)


def run_matrix(
    workloads: Sequence[str],
    *,
    base_config: SystemConfig,
    prefetchers: Sequence[str] = PREFETCHERS,
    schemes: Sequence[str] = SCHEMES,
    seed: int = 0,
    events: int = 10_000,
    warmup: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    attribution: bool = False,
    jobs: Optional[int] = None,
) -> MatrixReport:
    """Sweep every prefetcher x scheme pair over each workload.

    ``base_config`` must have prefetching and compression off; the
    matrix derives every variant from it with :func:`pair_config` so all
    cells share one baseline.  Each workload's distinct runs go through
    :func:`repro.core.experiment.run_points` as one batch, so they are
    disk-cached and spread over ``jobs`` workers like any sweep's points.

    ``progress`` is the runner's ``progress(done, total)`` callback over
    the whole matrix, such as the live renderer
    :class:`repro.obs.progress.SweepProgress`.  Each run emits a
    ``matrix-point`` telemetry record, and the sweep a final ``matrix``
    record (:mod:`repro.obs.telemetry`).

    ``attribution=True`` runs every point with the causal-attribution
    tracker attached (read-only, so speedups and interactions are
    unchanged) and annotates each cell with the measured pollution and
    expansion shares of its *both* run's demand misses.
    """
    if base_config.prefetch.enabled or base_config.l2.compressed:
        raise ValueError("matrix base config must have prefetching and compression off")
    for prefetcher in prefetchers:
        if prefetcher not in PREFETCHERS:
            raise ValueError(
                f"unknown prefetcher {prefetcher!r}; choose from {', '.join(PREFETCHERS)}"
            )
    for scheme in schemes:
        if scheme != "none":
            build_scheme(scheme)  # an unknown name raises ValueError
    if warmup is None:
        warmup = events
    cells: List[MatrixCell] = []
    pairs = matrix_pairs(prefetchers, schemes)
    total = len(workloads) * len(pairs)
    simulations = 0
    t0 = time.perf_counter()

    for workload in workloads:
        points = []
        for prefetcher, scheme in pairs:
            cfg = pair_config(base_config, prefetcher, scheme)
            if attribution:
                cfg = replace(cfg, attribution=True)
            points.append((
                (workload, cfg),
                dict(name=f"{prefetcher}+{scheme}", seed=seed, events=events,
                     warmup=warmup),
            ))
        results = completed(run_points(
            points,
            jobs=jobs,
            progress=(
                OffsetProgress(progress, simulations, total)
                if progress is not None else None
            ),
        ))
        for (prefetcher, scheme), result in zip(pairs, results):
            simulations += 1
            _telemetry.emit(
                "matrix-point",
                workload=workload,
                prefetcher=prefetcher,
                scheme=scheme,
                runtime=result.runtime,
                done=simulations,
                total=total,
            )

        runs = dict(zip(pairs, results))
        base_rt = runs[("none", "none")].runtime
        for prefetcher in prefetchers:
            for scheme in schemes:
                both = runs[(prefetcher, scheme)]
                ledger = AttributionLedger.from_extra(both.extra)
                cells.append(
                    MatrixCell(
                        workload=workload,
                        prefetcher=prefetcher,
                        scheme=scheme,
                        speedup_pref=speedup(
                            base_rt, runs[(prefetcher, "none")].runtime
                        ),
                        speedup_compr=speedup(base_rt, runs[("none", scheme)].runtime),
                        speedup_both=speedup(base_rt, both.runtime),
                        pollution_share=ledger and ledger.pollution_share(),
                        expansion_share=ledger and ledger.expansion_share(),
                    )
                )

    _telemetry.emit(
        "matrix",
        workloads=list(workloads),
        prefetchers=list(prefetchers),
        schemes=list(schemes),
        cells=len(cells),
        simulations=simulations,
        attribution=attribution,
        wall_s=time.perf_counter() - t0,
    )
    return MatrixReport(
        cells=tuple(cells),
        workloads=tuple(workloads),
        prefetchers=tuple(prefetchers),
        schemes=tuple(schemes),
        simulations=simulations,
        attribution=attribution,
    )
