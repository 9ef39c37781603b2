"""Live sweep progress: a terminal renderer for the ``progress(done,
total)`` callback that :class:`repro.core.runner.ParallelRunner` and
:meth:`repro.core.sweep.Sweep.run` already expose.

The renderer redraws one status line per completed point::

    sweep  12/64 [#####...............] 3.2 pt/s eta 16s sim=9 disk=3

Rate and ETA come from a wall-clock window over completed points; the
``sim``/``disk`` counts show where each result came from (fresh
simulation, or the persistent disk cache — which is also what a resumed
sweep restores from), which is usually the difference between a
40-minute sweep and a 2-second one.  Failed points add an ``err=N``
field, and the runner's resilience events append ``retry=N``
(retried attempts), ``restart=N`` (worker-pool respawns), ``tmo=N``
(points killed by ``REPRO_POINT_TIMEOUT``) and ``quar=N`` (corrupt
cache entries quarantined) as they happen.

The runner feeds outcome/source detail through the optional
:meth:`point_done` hook; a plain ``progress(done, total)`` callable
keeps working unchanged.  Instances are themselves callable with
``(done, total)`` so they can be passed anywhere a bare callback is
accepted.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional


class SweepProgress:
    """Render sweep progress to a terminal stream (stderr by default)."""

    BAR_WIDTH = 20

    def __init__(
        self,
        label: str = "sweep",
        stream: Optional[IO[str]] = None,
        now: Optional[callable] = None,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self._now = now if now is not None else time.monotonic
        self.started = self._now()
        self.sources = {"sim": 0, "disk": 0}
        self.events = {"retry": 0, "restart": 0, "timeout": 0, "quarantine": 0}
        self.errors = 0
        self.done = 0
        self.total = 0
        self._line_len = 0
        self._closed = False

    # -- runner hooks -------------------------------------------------------

    def __call__(self, done: int, total: int) -> None:
        """Bare-callback compatibility: progress without source detail."""
        self.point_done(done, total)

    def point_done(
        self, done: int, total: int, source: Optional[str] = None
    ) -> None:
        """One point finished; ``source`` is ``sim``/``disk``/``error``
        when the caller knows it."""
        self.done, self.total = done, total
        if source == "error":
            self.errors += 1
        elif source in self.sources:
            self.sources[source] += 1
        self._render()
        if done >= total:
            self.close()

    def event(self, kind: str) -> None:
        """A resilience event from the runner: ``retry`` / ``restart`` /
        ``timeout`` / ``quarantine``."""
        if kind in self.events:
            self.events[kind] += 1
            self._render()

    def close(self) -> None:
        """Finish the line (idempotent)."""
        if not self._closed and self._line_len:
            self.stream.write("\n")
            self.stream.flush()
        self._closed = True

    # -- rendering ----------------------------------------------------------

    def _eta_s(self) -> Optional[float]:
        elapsed = self._now() - self.started
        if self.done <= 0 or elapsed <= 0:
            return None
        rate = self.done / elapsed
        return (self.total - self.done) / rate if rate > 0 else None

    @staticmethod
    def _fmt_eta(seconds: float) -> str:
        seconds = int(round(seconds))
        if seconds >= 3600:
            return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
        if seconds >= 60:
            return f"{seconds // 60}m{seconds % 60:02d}s"
        return f"{seconds}s"

    def _render(self) -> None:
        elapsed = self._now() - self.started
        rate = self.done / elapsed if elapsed > 0 else 0.0
        filled = (
            round(self.BAR_WIDTH * self.done / self.total) if self.total else 0
        )
        bar = "#" * filled + "." * (self.BAR_WIDTH - filled)
        parts = [
            f"{self.label} {self.done}/{self.total} [{bar}] {rate:.1f} pt/s"
        ]
        eta = self._eta_s()
        if eta is not None and self.done < self.total:
            parts.append(f"eta {self._fmt_eta(eta)}")
        parts += [f"{k}={v}" for k, v in self.sources.items() if v]
        if self.errors:
            parts.append(f"err={self.errors}")
        short = {"retry": "retry", "restart": "restart",
                 "timeout": "tmo", "quarantine": "quar"}
        parts += [f"{short[k]}={v}" for k, v in self.events.items() if v]
        line = " ".join(parts)
        pad = max(self._line_len - len(line), 0)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
        self._line_len = len(line)


def default_progress(
    label: str = "sweep", stream: Optional[IO[str]] = None
) -> Optional[SweepProgress]:
    """A renderer when the stream is an interactive terminal, else None
    (piped/captured output should not fill with carriage returns)."""
    target = stream if stream is not None else sys.stderr
    isatty = getattr(target, "isatty", None)
    if isatty is None or not isatty():
        return None
    return SweepProgress(label=label, stream=target)
