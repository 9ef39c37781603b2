"""Structured parameter sweeps.

The paper's sensitivity studies (Figures 11 and 12) are factorial sweeps:
a grid over named dimensions, one simulation per grid point, then slices
through the results.  This module packages that pattern so a user can
run their own sensitivity studies in a few lines:

    sweep = (Sweep()
             .dimension("workload", ["zeus", "jbb"])
             .dimension("key", ["base", "pref", "compr", "pref_compr"])
             .dimension("bandwidth_gbs", [10.0, 20.0, 40.0]))
    results = sweep.run(events=8000, warmup=8000)
    print(results.table(["workload", "bandwidth_gbs"], metric="runtime"))

Dimensions map onto :func:`repro.core.experiment.run_point` arguments;
``workload`` and ``key`` are positional, everything else is passed
through as keyword arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import run_points
from repro.core.results import SimulationResult
from repro.core.runner import PointError
from repro.report.tables import Table

#: Metrics extractable from a result by name.
METRICS: Dict[str, Callable[[SimulationResult], float]] = {
    "runtime": lambda r: r.runtime,
    "ipc": lambda r: r.ipc,
    "l2_miss_rate": lambda r: r.l2.miss_rate,
    "l2_demand_misses": lambda r: float(r.l2.demand_misses),
    "bandwidth_gbs": lambda r: r.bandwidth_gbs,
    "compression_ratio": lambda r: r.compression_ratio,
    "link_bytes": lambda r: float(r.link.bytes_total),
}


@dataclass
class SweepResults:
    """The full grid of results plus slicing helpers.

    ``errors`` holds the grid points that failed (coordinates ->
    :class:`repro.core.runner.PointError`); those keys are absent from
    ``points``.
    """

    dimensions: List[str]
    points: Dict[Tuple, SimulationResult] = field(default_factory=dict)
    errors: Dict[Tuple, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def get(self, **coords) -> SimulationResult:
        key = tuple(coords[d] for d in self.dimensions)
        return self.points[key]

    def metric(self, name: str, **coords) -> float:
        if name not in METRICS:
            raise KeyError(f"unknown metric {name!r}; choose from {', '.join(METRICS)}")
        return METRICS[name](self.get(**coords))

    def slice(self, **fixed) -> List[Tuple[Dict[str, Any], SimulationResult]]:
        """All points whose coordinates match the fixed values."""
        out = []
        for key, result in self.points.items():
            coords = dict(zip(self.dimensions, key))
            if all(coords[d] == v for d, v in fixed.items()):
                out.append((coords, result))
        return out

    def table(self, row_dims: Sequence[str], metric: str = "runtime") -> Table:
        """A table with one row per combination of ``row_dims`` and one
        column per combination of the remaining dimensions."""
        if metric not in METRICS:
            raise KeyError(f"unknown metric {metric!r}")
        col_dims = [d for d in self.dimensions if d not in row_dims]
        row_keys = sorted({tuple(dict(zip(self.dimensions, k))[d] for d in row_dims)
                           for k in self.points}, key=str)
        col_keys = sorted({tuple(dict(zip(self.dimensions, k))[d] for d in col_dims)
                           for k in self.points}, key=str)
        header = ["/".join(str(v) for v in rk) for rk in [tuple(row_dims)]]
        columns = header + ["/".join(str(v) for v in ck) or metric for ck in col_keys]
        table = Table(columns, float_format="{:.4g}")
        fn = METRICS[metric]
        for rk in row_keys:
            cells: List[Any] = ["/".join(str(v) for v in rk)]
            for ck in col_keys:
                coords = dict(zip(row_dims, rk))
                coords.update(zip(col_dims, ck))
                key = tuple(coords[d] for d in self.dimensions)
                result = self.points.get(key)
                cells.append(fn(result) if result is not None else "-")
            table.add_row(cells)
        return table


class Sweep:
    """Factorial sweep builder over run_point's parameter space."""

    #: Dimensions consumed positionally by run_point.
    SPECIAL = ("workload", "key")

    def __init__(self) -> None:
        self._dims: "Dict[str, List[Any]]" = {}

    def dimension(self, name: str, values: Sequence[Any]) -> "Sweep":
        if not values:
            raise ValueError(f"dimension {name!r} has no values")
        if name in self._dims:
            raise ValueError(f"dimension {name!r} already defined")
        self._dims[name] = list(values)
        return self

    @property
    def size(self) -> int:
        n = 1
        for values in self._dims.values():
            n *= len(values)
        return n

    def run(
        self,
        *,
        events: Optional[int] = None,
        warmup: Optional[int] = None,
        jobs: Optional[int] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        **fixed_kwargs,
    ) -> SweepResults:
        """Simulate every grid point (cached via run_point's disk cache).

        ``jobs`` > 1 fans the grid out across worker processes (see
        :func:`repro.core.experiment.run_points`); the merged results
        are identical to a serial run, and a grid point that raises is
        recorded in :attr:`SweepResults.errors` instead of aborting the
        sweep.  Every completed point is stored in the disk cache the
        moment it completes, so rerunning a killed sweep restores the
        finished points (progress source ``disk``) and simulates only
        the rest.
        """
        if "workload" not in self._dims:
            raise ValueError("a sweep needs a 'workload' dimension")
        if "key" not in self._dims:
            self._dims["key"] = ["base"]
        names = list(self._dims)
        combos = list(itertools.product(*self._dims.values()))
        points = []
        for combo in combos:
            coords = dict(zip(names, combo))
            kwargs = {k: v for k, v in coords.items() if k not in self.SPECIAL}
            kwargs.update(fixed_kwargs)
            # A dimension may itself be named "events"/"warmup"; the
            # call-level arguments only fill the gaps.
            kwargs.setdefault("events", events)
            kwargs.setdefault("warmup", warmup)
            points.append(((coords["workload"], coords["key"]), kwargs))
        results = SweepResults(dimensions=names)
        outcomes = run_points(points, jobs=jobs, progress=progress)
        for combo, outcome in zip(combos, outcomes):
            if isinstance(outcome, PointError):
                results.errors[combo] = outcome
            else:
                results.points[combo] = outcome
        return results
