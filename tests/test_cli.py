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

    def test_every_lens_on_one_run(self, capsys, tmp_path):
        """All five lens flags arm together on one system and run once:
        each lens writes and prints its output, and the result is the
        plain run's."""
        from repro.obs.trace import validate_trace

        trace, metrics, why = (str(tmp_path / name)
                               for name in ("t.json", "m.csv", "w.json"))
        lenses = ("--audit", "--trace", trace, "--metrics", metrics,
                  "--why", why, "--verify")
        code, out = run_cli(capsys, "run", "zeus", "--config", "pref_compr",
                            *lenses, *SMALL)
        assert code == 0
        for line in ("audit OK", "oracle OK", "reconciles exactly"):
            assert line in out
        data = json.loads(open(trace).read())
        assert validate_trace(data) == []
        assert any(e.get("ph") == "i" and e["name"].startswith("attr.miss.")
                   for e in data["traceEvents"])
        assert open(metrics).read().startswith("cycle,")
        assert "miss_class" in json.loads(open(why).read())

        def plain_rows(text):
            rows = json.loads(text)
            for row in rows:
                extra = {k: v for k, v in row.pop("extra", {}).items()
                         if not k.startswith("attr_")}
                if extra:
                    row["extra"] = extra
            return rows

        code = main(["run", "zeus", "--config", "pref_compr", *lenses, "--json", *SMALL])
        observed = capsys.readouterr()
        assert code == 0
        assert "audit OK" in observed.err  # lens sections keep stdout JSON
        code, plain = run_cli(capsys, "run", "zeus", "--config", "pref_compr",
                              "--json", *SMALL)
        assert code == 0
        assert plain_rows(observed.out) == plain_rows(plain)


    def test_a_failed_check_stops_the_run(self, capsys, monkeypatch):
        """An audit violation or an oracle mismatch ends the run with
        exit 1, naming what failed on stderr, before any section prints."""
        from repro.obs.audit import AuditViolation, Violation
        from repro.verify.oracle import ReferenceHierarchy

        def violate(hierarchy, expected=None):
            raise AuditViolation([Violation("planted", "broken on purpose")])

        monkeypatch.setattr("repro.obs.audit.audit_hierarchy", violate)
        monkeypatch.setattr(ReferenceHierarchy, "compare", lambda self, h: ["planted"])
        for flag, name in (("--audit", "AuditViolation"), ("--verify", "OracleMismatch")):
            code = main(["run", "zeus", flag, *SMALL])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err.startswith(f"{name} in zeus/base:")
            assert "planted" in captured.err

    def test_no_metric_samples_exits_1(self, capsys):
        code = main(["run", "zeus", "--metrics", "--interval", "100000000", *SMALL])
        captured = capsys.readouterr()
        assert code == 1
        assert "no samples recorded" in captured.err


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
