"""The prefetcher x compression interaction matrix (repro.report.matrix)
and its ``repro matrix`` CLI front end."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.experiment import make_config
from repro.obs.telemetry import read_records
from repro.report.matrix import (
    PREFETCHERS,
    SCHEMES,
    pair_config,
    run_matrix,
)

_BASE = make_config("base", n_cores=2, scale=16)
_RUN = dict(seed=0, events=250, warmup=250)


class TestPairConfig:
    def test_base_pair_is_the_baseline(self):
        assert pair_config(_BASE, "none", "none") == _BASE

    def test_prefetcher_and_scheme_toggled_together(self):
        cfg = pair_config(_BASE, "pointer", "bdi")
        assert cfg.prefetch.enabled and cfg.prefetch.kind == "pointer"
        assert cfg.l2.compressed and cfg.l2.scheme == "bdi"
        assert cfg.link.compressed  # the paper's 'compr' combo: cache + link

    def test_single_policy_legs(self):
        pref_only = pair_config(_BASE, "stride", "none")
        assert pref_only.prefetch.enabled and not pref_only.l2.compressed
        compr_only = pair_config(_BASE, "none", "fpc")
        assert compr_only.l2.compressed and not compr_only.prefetch.enabled


class TestRunMatrix:
    @pytest.fixture(scope="class")
    def report(self):
        return run_matrix(["chase"], base_config=_BASE, **_RUN)

    def test_rejects_non_baseline_config(self):
        with pytest.raises(ValueError):
            run_matrix(["chase"], base_config=pair_config(_BASE, "stride", "none"), **_RUN)

    def test_full_cross_product_of_cells(self, report):
        assert len(report.cells) == len(PREFETCHERS) * len(SCHEMES)
        assert {(c.prefetcher, c.scheme) for c in report.cells} == {
            (p, s) for p in PREFETCHERS for s in SCHEMES
        }

    def test_single_policy_runs_are_shared(self, report):
        """1 base + 3 pref-only + 2 compr-only + 3x2 pairs = 12 sims,
        not 4 per cell."""
        n_pref = len(PREFETCHERS) - 1
        n_schemes = len(SCHEMES) - 1
        assert report.simulations == 1 + n_pref + n_schemes + n_pref * n_schemes

    def test_degenerate_pairs_score_exactly_zero(self, report):
        for cell in report.cells:
            if cell.prefetcher == "none" or cell.scheme == "none":
                assert cell.interaction == 0.0

    def test_ranking_is_descending_by_interaction(self, report):
        ranked = report.ranked()
        assert [c.interaction for c in ranked] == sorted(
            (c.interaction for c in ranked), reverse=True
        )

    def test_eq5_decomposition_holds_per_cell(self, report):
        for c in report.cells:
            lhs = c.speedup_both
            rhs = c.speedup_pref * c.speedup_compr * (1 + c.interaction)
            assert lhs == pytest.approx(rhs)

    def test_csv_round_shape(self, report):
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == (
            "workload,prefetcher,scheme,speedup_pref,speedup_compr,"
            "speedup_both,interaction"
        )
        assert len(lines) == 1 + len(report.cells)
        assert all(line.startswith("chase,") for line in lines[1:])


class TestMatrixCLI:
    SMALL = ("--events", "250", "--warmup", "250", "--scale", "16", "--cores", "2")

    def test_ranked_table_and_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "matrix.csv"
        code = main(
            ["matrix", "--workloads", "chase", "-o", str(out_csv), *self.SMALL]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "interaction%" in out
        assert "pointer" in out and "bdi" in out
        body = out_csv.read_text().strip().splitlines()
        assert len(body) == 1 + len(PREFETCHERS) * len(SCHEMES)

    def test_policy_subsets(self, capsys):
        code = main(
            [
                "matrix", "--workloads", "chase",
                "--prefetchers", "none,pointer", "--schemes", "none,bdi",
                *self.SMALL,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 simulation(s)" in out  # 1 base + 1 pref + 1 compr + 1 pair

    def test_unknown_prefetcher_is_an_operator_error(self, capsys):
        code = main(
            ["matrix", "--workloads", "chase", "--prefetchers", "none,psychic",
             *self.SMALL]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMatrixPipeline:
    """The matrix's points go through the shared point pipeline: cached
    across processes and spread over ``REPRO_JOBS`` workers without
    changing a byte of the output."""

    CI = ("--events", "1500", "--warmup", "1500", "--scale", "8", "--cores", "4")

    def test_warm_rerun_in_a_fresh_process_simulates_nothing(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        for var in ("REPRO_CACHE", "REPRO_JOBS", "REPRO_TELEMETRY",
                    "REPRO_ATTRIBUTION", "REPRO_AUDIT", "REPRO_TRACE",
                    "REPRO_METRICS"):
            env.pop(var, None)

        def matrix(csv, **extra):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "matrix", "--workloads", "chase",
                 "-o", str(tmp_path / csv), *self.CI],
                env=dict(env, **extra), cwd=str(tmp_path), capture_output=True,
                text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        cold = matrix("cold.csv")
        tele = tmp_path / "warm.jsonl"
        warm = matrix("warm.csv", REPRO_TELEMETRY=str(tele))
        assert warm == cold
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
        records = read_records(str(tele))
        assert not [r for r in records if r["kind"] == "simulate"]
        points = [r for r in records if r["kind"] == "point"]
        assert len(points) == 12 and {r["source"] for r in points} == {"disk"}

    def test_csv_identical_serial_and_with_repro_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        argv = ["matrix", "--workloads", "chase,zeus", "--prefetchers",
                "none,stride", "--schemes", "none,fpc", "--quiet",
                *TestMatrixCLI.SMALL]
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(argv + ["-o", str(tmp_path / "serial.csv")]) == 0
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert main(argv + ["-o", str(tmp_path / "jobs.csv")]) == 0
        assert (tmp_path / "jobs.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
