"""Tests for tables, charts, and exporters."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.report.charts import bar_chart, grouped_bar_chart, sparkline
from repro.report.export import EXPORT_FIELDS, result_to_dict, results_to_csv, results_to_json
from repro.report.tables import Table


class TestTable:
    def test_alignment(self):
        t = Table(["workload", "speedup"])
        t.add_row(["zeus", 1.213])
        t.add_row(["apache-long-name", 0.9])
        text = t.render()
        lines = text.splitlines()
        assert lines[0].startswith("workload")
        assert all(len(line) == len(lines[0]) for line in lines[1:])
        assert "1.213" in text

    def test_numeric_columns_right_aligned(self):
        t = Table(["workload", "speedup", "misses"])
        t.add_row(["zeus", 1.213, 12])
        t.add_row(["apache-long-name", 0.9, 3456])
        assert t.render() == (
            "workload           speedup   misses\n"
            "----------------   -------   ------\n"
            "zeus                 1.213       12\n"
            "apache-long-name     0.900     3456"
        )

    def test_text_columns_left_aligned_without_trailing_pad(self):
        t = Table(["knob", "value", "doc"], left=3)
        t.add_row(["REPRO_A", 1, "one line"])
        t.add_row(["REPRO_LONG", "= REPRO_A", "another, longer line"])
        assert t.render() == (
            "knob         value       doc\n"
            "----------   ---------   --------------------\n"
            "REPRO_A      1           one line\n"
            "REPRO_LONG   = REPRO_A   another, longer line"
        )

    def test_row_width_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([])

    def test_float_format(self):
        t = Table(["k", "v"], float_format="{:+.1f}")
        t.add_row(["x", 0.25])
        assert "+0.2" in t.render()

    def test_len_and_str(self):
        t = Table(["k"])
        t.add_row(["x"])
        assert len(t) == 1
        assert str(t) == t.render()


class TestBarChart:
    def test_positive_bars(self):
        text = bar_chart({"a": 10.0, "b": 5.0}, unit="%")
        assert "a" in text and "#" in text and "+10.0%" in text

    def test_negative_bars_left_of_origin(self):
        text = bar_chart({"up": 10.0, "down": -10.0})
        up_line, down_line = text.splitlines()
        assert up_line.index("#") > down_line.index("#")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_grouped(self):
        text = grouped_bar_chart({"zeus": {"pref": 21.0, "compr": 9.7}})
        assert "zeus:" in text and "pref" in text

    def test_sparkline(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] != line[-1]
        with pytest.raises(ValueError):
            sparkline([])

    def test_sparkline_flat_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_grouped_negative_values(self):
        text = grouped_bar_chart(
            {"jbb": {"pref": -24.5, "compr": 5.9}, "zeus": {"pref": 21.3, "compr": 9.7}},
            unit="%",
        )
        assert "-24.5%" in text and "+21.3%" in text
        assert "jbb:" in text and "zeus:" in text

    def test_grouped_empty_rejected(self):
        with pytest.raises(ValueError):
            grouped_bar_chart({})

    def test_zero_value_bar_renders(self):
        text = bar_chart({"flat": 0.0, "up": 5.0})
        assert "+0.0" in text


class TestExport:
    def _result(self):
        from tests.test_results import make_result

        return make_result()

    def test_dict_fields(self):
        d = result_to_dict(self._result())
        assert set(EXPORT_FIELDS) <= set(d)

    def test_json_parses(self):
        data = json.loads(results_to_json([self._result()]))
        assert data[0]["workload"] == "w"
        assert data[0]["ipc"] == 2.0

    def test_csv_parses(self):
        text = results_to_csv([self._result(), self._result()])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["workload"] == "w"
