"""Tests for the factorial sweep framework."""

from __future__ import annotations

import pytest

from repro.core.sweep import METRICS, Sweep, SweepResults

FAST = dict(events=250, warmup=100, scale=16, n_cores=2)


class TestBuilder:
    def test_size(self):
        s = Sweep().dimension("workload", ["zeus", "jbb"]).dimension("key", ["base", "pref"])
        assert s.size == 4

    def test_duplicate_dimension_rejected(self):
        s = Sweep().dimension("workload", ["zeus"])
        with pytest.raises(ValueError):
            s.dimension("workload", ["jbb"])

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            Sweep().dimension("workload", [])

    def test_workload_dimension_required(self):
        with pytest.raises(ValueError):
            Sweep().dimension("key", ["base"]).run(**FAST)

    def test_key_defaults_to_base(self):
        results = Sweep().dimension("workload", ["zeus"]).run(**FAST)
        assert results.get(workload="zeus", key="base") is not None


class TestRun:
    def test_full_grid(self):
        results = (
            Sweep()
            .dimension("workload", ["zeus", "jbb"])
            .dimension("key", ["base", "compr"])
            .run(**FAST)
        )
        assert len(results) == 4
        r = results.get(workload="jbb", key="compr")
        assert r.workload == "jbb" and r.config_name == "compr"

    def test_extra_dimension_passes_through(self):
        results = (
            Sweep()
            .dimension("workload", ["zeus"])
            .dimension("key", ["base"])
            .dimension("n_cores", [1, 2])
            .run(events=250, warmup=100, scale=16)
        )
        assert len(results) == 2
        one = results.get(workload="zeus", key="base", n_cores=1)
        two = results.get(workload="zeus", key="base", n_cores=2)
        assert one.instructions < two.instructions

    def test_progress_callback(self):
        seen = []
        (
            Sweep()
            .dimension("workload", ["zeus"])
            .dimension("key", ["base", "compr"])
            .run(progress=lambda done, total: seen.append((done, total)), **FAST)
        )
        assert seen == [(1, 2), (2, 2)]


class TestResults:
    def make(self) -> SweepResults:
        return (
            Sweep()
            .dimension("workload", ["zeus", "jbb"])
            .dimension("key", ["base", "compr"])
            .run(**FAST)
        )

    def test_metric_lookup(self):
        results = self.make()
        assert results.metric("runtime", workload="zeus", key="base") > 0
        with pytest.raises(KeyError):
            results.metric("fps", workload="zeus", key="base")

    def test_slice(self):
        results = self.make()
        zeus_points = results.slice(workload="zeus")
        assert len(zeus_points) == 2
        assert all(c["workload"] == "zeus" for c, _ in zeus_points)

    def test_table_renders(self):
        results = self.make()
        table = results.table(["workload"], metric="l2_miss_rate")
        text = table.render()
        assert "zeus" in text and "jbb" in text
        assert len(table) == 2

    def test_every_metric_extracts(self):
        results = self.make()
        for name in METRICS:
            value = results.metric(name, workload="zeus", key="base")
            assert isinstance(value, float)
