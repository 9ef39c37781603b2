"""The sweep resume guard: what an interrupted ``repro sweep`` prints.

The result cache is the sweep's checkpoint (every completed point is
stored the moment it completes), so on SIGINT/SIGTERM the guard names
the cache root and how many of the sweep's points it holds, then prints
the command to resume; with the cache off it says so instead of
promising a resume.
"""

from __future__ import annotations

import io
import os
import signal

import pytest

from repro import settings
from repro.cli import resume_guard
from repro.core.experiment import run_point

FAST = dict(events=200, warmup=100, scale=16, n_cores=2)


class TestResumeGuard:
    def test_sigint_prints_resume_command(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        points = [(("zeus", "base"), FAST), (("zeus", "pref"), FAST)]
        run_point("zeus", "base", **FAST)  # stored; zeus/pref is not
        out = io.StringIO()
        with pytest.raises(KeyboardInterrupt):
            with resume_guard(points, "python -m repro sweep --resume", stream=out):
                os.kill(os.getpid(), signal.SIGINT)
        text = out.getvalue()
        assert (
            "1 completed point(s) stored in " + settings.get("REPRO_CACHE_DIR")
        ) in text
        assert "resume with:\n  python -m repro sweep --resume" in text

    def test_sigterm_exits_143(self):
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            with resume_guard(None, "python -m repro sweep --resume", stream=out):
                os.kill(os.getpid(), signal.SIGTERM)
        assert exc.value.code == 143
        text = out.getvalue()
        assert "result cache is off (REPRO_CACHE=0), so no point was kept" in text
        assert "python -m repro sweep --resume" in text
        assert "resume with" not in text  # nothing to resume from

    def test_handlers_restored(self):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        with resume_guard(None, "cmd", stream=io.StringIO()):
            assert signal.getsignal(signal.SIGINT) is not before_int
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term
