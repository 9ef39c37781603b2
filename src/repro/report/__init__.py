"""Result presentation: aligned tables, ASCII bar charts, CSV/JSON export."""

from repro._lazy import lazy_exports

lazy_exports(globals(), {
    "repro.report.tables": ("Table",),
    "repro.report.charts": ("bar_chart", "grouped_bar_chart"),
    "repro.report.export": ("result_to_dict", "results_to_csv", "results_to_json"),
})

__all__ = [
    "Table",
    "bar_chart",
    "grouped_bar_chart",
    "result_to_dict",
    "results_to_csv",
    "results_to_json",
]
