"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


SMALL = ("--events", "400", "--warmup", "400", "--scale", "16", "--cores", "2")


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subs = next(
            a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        assert {"run", "sweep", "table5", "record", "replay", "schemes"} <= set(subs.choices)

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "zeus", "--config", "turbo"])

    def test_help_keeps_each_example_on_its_own_line(self):
        import repro.cli

        examples = [
            line.strip() for line in repro.cli.__doc__.splitlines()
            if line.strip().startswith("python -m repro")
        ]
        help_lines = [line.strip() for line in build_parser().format_help().splitlines()]
        assert len(examples) > 10
        assert [line for line in examples if line not in help_lines] == []


class TestRun:
    def test_table_output(self, capsys):
        code, out = run_cli(capsys, "run", "zeus", "--config", "base", *SMALL)
        assert code == 0
        assert "zeus" in out and "cycles" in out

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "run", "zeus", "--json", *SMALL)
        data = json.loads(out)
        assert data[0]["workload"] == "zeus"

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, "run", "zeus", "--csv", *SMALL)
        assert out.splitlines()[0].startswith("workload,")


class TestSweep:
    def test_matrix(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--workloads", "zeus", "--configs", "base,compr", *SMALL
        )
        assert code == 0
        assert out.count("zeus") == 2


class TestSchemes:
    def test_scheme_table(self, capsys):
        code, out = run_cli(capsys, "schemes", "oltp")
        assert code == 0
        for name in ("fpc", "fvc", "selective", "zero_only"):
            assert name in out


class TestTable5:
    def test_table5_single_workload(self, capsys):
        code, out = run_cli(
            capsys, "table5", "--workloads", "zeus", *SMALL
        )
        assert code == 0
        assert "zeus" in out and "interaction%" in out
        # All four percentage columns render signed values.
        assert out.count("+") + out.count("-") >= 4


class TestRecordReplay:
    def test_record_then_replay(self, capsys, tmp_path):
        path = str(tmp_path / "t.rpt.gz")
        code, out = run_cli(
            capsys, "record", "zeus", path, "--events", "500", "--cores", "2", "--scale", "16"
        )
        assert code == 0 and "recorded" in out
        code, out = run_cli(
            capsys, "replay", path, "--config", "compr", "--scale", "16", "--json"
        )
        assert code == 0
        assert json.loads(out)[0]["workload"] == "zeus"
