"""Tests for the run-settings table (repro.settings) and ``repro config``."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import settings
from repro.cli import main
from repro.core.experiment import run_point
from repro.faults.inject import KINDS as FAULT_KINDS

ROOT = Path(__file__).resolve().parent.parent

#: A malformed value for every kind in the table; a knob of a new kind
#: fails the parametrized test below until it gets one.
MALFORMED = {
    "int": "lots",
    "positive": "x1",
    "switch": "banana",
    "path": "   ",
    "switch-or-path": "\t",
    "fault-plan": "garbage@@",
}

#: What the message adds after ``got '<value>'``: the fault-plan parser's
#: reason survives into the one line; other kinds add nothing.
REASON = {
    "fault-plan": ": bad clause 'garbage@@': unknown fault kind 'garbage'; "
                  "choose from " + ", ".join(FAULT_KINDS),
}

#: ``repro run`` at the point the warm-cache fixture pre-computes.
RUN = ["run", "zeus", "--config", "base", "--events", "300"]


#: Every string constant in the modules under ``src/repro`` but
#: ``settings.py``.  A knob is read by name (``settings.get("REPRO_X")``,
#: ``settings.suspended("REPRO_X")``, ``faults.inject.ENV_VAR``), so a
#: row whose name is not among them is a dead knob.
NAMED = {
    node.value
    for path in (ROOT / "src" / "repro").rglob("*.py")
    if path.name != "settings.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    if isinstance(node, ast.Constant) and isinstance(node.value, str)
}


def _bad_values(row):
    yield MALFORMED[row.kind]
    if row.minimum is not None:
        below = row.minimum - 1
        yield str(int(below) if row.kind == "int" else below)


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A disk cache already holding the ``RUN`` point, so a cache hit
    would skip every simulation-side read of a knob."""
    root = str(tmp_path_factory.mktemp("warm-cache"))
    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = root
    try:
        run_point("zeus", "base", events=300, warmup=300)
    finally:
        if saved is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    return root


@pytest.mark.parametrize("name", list(settings.TABLE))
def test_malformed_value_fails_any_command_in_one_line(
    name, warm_cache, monkeypatch, capsys
):
    assert name in NAMED, f"no module outside settings.py reads {name}"
    row = settings.TABLE[name]
    monkeypatch.setenv("REPRO_CACHE_DIR", warm_cache)
    for bad in _bad_values(row):
        monkeypatch.setenv(name, bad)
        assert main(RUN) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: {name} must be "), err
        assert err[0].endswith(f", got {bad!r}{REASON.get(row.kind, '')}"), err


def test_cli_process_exits_2_with_one_line(tmp_path):
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
        REPRO_WARMUP="abc",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *RUN],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: REPRO_WARMUP must be an integer >= 0, got 'abc'"
    ]


def test_config_reports_value_and_source(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "3")
    monkeypatch.setenv("REPRO_TRACE", "/tmp/run.json")
    monkeypatch.delenv("REPRO_SEEDS", raising=False)
    assert main(["config", "--json"]) == 0
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)}
    assert list(rows) == list(settings.TABLE)
    assert (rows["REPRO_JOBS"]["value"], rows["REPRO_JOBS"]["source"]) == (3, "env")
    assert (rows["REPRO_TRACE"]["value"], rows["REPRO_TRACE"]["source"]) == (
        "/tmp/run.json", "env"
    )
    assert (rows["REPRO_SEEDS"]["value"], rows["REPRO_SEEDS"]["source"]) == (
        1, "default"
    )
    assert main(["config"]) == 0
    table = capsys.readouterr().out
    assert re.search(r"^REPRO_JOBS\s+3\s+env\s", table, re.M)
    # Value, source and doc are text: each column starts at one offset.
    lines = table.splitlines()
    for name in ("value", "source", "doc"):
        col = lines[0].index(name)
        assert all(line[col - 1] == " " != line[col] for line in lines[2:]), name


def test_readme_knob_table_matches_settings_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        if line.startswith("| `REPRO_"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            name = cells[0].strip("`")
            rows[name] = cells[-1].replace("`", "").split(" (")[0].strip()
    assert set(rows) == set(settings.TABLE)
    for name, default in rows.items():
        row = settings.TABLE[name]
        assert default == row.show(row.default), name


def test_empty_is_unset_and_unknown_names_raise(monkeypatch):
    monkeypatch.setenv("REPRO_EVENTS", "")
    assert settings.get("REPRO_EVENTS") == 20_000
    assert settings.source("REPRO_EVENTS") == "default"
    with pytest.raises(KeyError):
        settings.get("REPRO_NO_SUCH_KNOB")


def test_suspended_restores_every_named_knob(monkeypatch):
    monkeypatch.setenv("REPRO_AUDIT", "0")
    monkeypatch.delenv("REPRO_POINT_TIMEOUT", raising=False)
    with settings.suspended("REPRO_AUDIT", "REPRO_POINT_TIMEOUT"):
        assert settings.source("REPRO_AUDIT") == "default"
        settings.put("REPRO_POINT_TIMEOUT", 0.5)
        assert settings.get("REPRO_POINT_TIMEOUT") == 0.5
    assert os.environ["REPRO_AUDIT"] == "0"
    assert "REPRO_POINT_TIMEOUT" not in os.environ
    with pytest.raises(ValueError, match="REPRO_POINT_TIMEOUT must be a number > 0"):
        settings.put("REPRO_POINT_TIMEOUT", 0)
