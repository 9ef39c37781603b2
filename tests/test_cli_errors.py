"""CLI error paths: every operator mistake must exit non-zero with one
readable message on stderr, never a traceback."""

from __future__ import annotations

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMissingFiles:
    def test_replay_missing_trace(self, capsys):
        code, _, err = run_cli(capsys, "replay", "/nonexistent/trace.bin")
        assert code == 2
        assert err.startswith("error:")
        assert "nonexistent" in err

    def test_telemetry_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "telemetry", "/nonexistent/telemetry.jsonl")
        assert code == 1
        assert err.startswith("error: cannot read")

    def test_fuzz_repro_missing_crash_file(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "--repro", "/nonexistent/crash.json")
        assert code == 2
        assert err.startswith("error: no such crash file")
        # Crucially NOT reported as a still-reproducing failure.
        assert "still reproduces" not in err

    def test_record_to_unwritable_directory(self, capsys):
        code, _, err = run_cli(
            capsys, "record", "zeus", "/nonexistent-dir/out.trace",
            "--events", "50", "--cores", "1", "--scale", "32",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_fuzz_repro_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "crash.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "fuzz", "--repro", str(bad))
        assert code == 1
        assert "still reproduces" in err


class TestBadValues:
    def test_fuzz_bad_budget(self, capsys):
        code, _, err = run_cli(capsys, "fuzz", "--budget", "abc", "--seeds", "1")
        assert code == 2
        assert err.startswith("error:")
        assert "abc" in err

    def test_fuzz_budget_units_accepted(self):
        from repro.cli import _parse_budget

        assert _parse_budget(None) is None
        assert _parse_budget("") is None
        assert _parse_budget("120") == 120.0
        assert _parse_budget("120s") == 120.0
        assert _parse_budget("2m") == 120.0
        with pytest.raises(ValueError):
            _parse_budget("soon")


class TestArgparseRejections:
    # argparse exits with SystemExit(2) and a usage line of its own.
    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "doom"),
            ("run", "zeus", "--config", "turbo"),
            ("verify", "doom"),
            ("verify", "zeus", "--config", "turbo"),
            ("nonsense",),
            ("bench",),
            ("profile", "zeus", "--engine", "sampler"),
        ],
    )
    def test_bad_names_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    # Only run, sweep and replay print through a format switch; every
    # other command refuses the flags instead of printing plain text.
    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    @pytest.mark.parametrize("argv", [
        ("table5",), ("matrix",), ("figure8",), ("why", "zeus"),
        ("audit", "zeus"), ("trace", "zeus"), ("metrics", "zeus"),
        ("verify", "zeus"),
    ], ids=lambda argv: argv[0])
    def test_format_flags_rejected_where_ignored(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestUnknownSweepNames:
    """``repro sweep`` rejects an unknown ``--configs`` key the way it
    rejects an unknown ``--workloads`` name: exit 2, one stderr line,
    before any result-cache entry is written."""

    SIZING = ("--events", "50", "--warmup", "50", "--scale", "32", "--cores", "1",
              "--quiet")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--configs", "base,nosuch", "error: unknown config 'nosuch'; choose from base,"),
            ("--workloads", "nosuch", "error: unknown workload 'nosuch'; choose from "),
        ],
    )
    def test_exit_2_one_line_no_journal(self, capsys, monkeypatch, tmp_path,
                                        flag, value, message):
        store = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(store))
        code, out, err = run_cli(capsys, "sweep", flag, value, "--resume",
                                 *self.SIZING)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(message), err
        assert not store.exists()
