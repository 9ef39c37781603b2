"""Run settings: every ``REPRO_*`` environment knob, in one table.

A simulation result is fixed by its :class:`~repro.params.SystemConfig`
and its run arguments; *how* a run executes — how many events by
default, where the result cache lives, which faults are injected — is
set by ``REPRO_*`` environment variables.  :data:`TABLE` declares every
one of them with its kind, default, bound and a one-line doc;
:func:`get` is the only reader, and :func:`check` validates them all up
front (``repro`` does so before dispatching any command, so a bad value
fails every command the same way, cache hits included)::

    REPRO_X must be <kind>[ >= n], got '<value>'

The environment stays the transport: forked pool workers inherit it and
tests set it with ``monkeypatch.setenv``, so :func:`get` reads it at
call time.  An unset or empty variable means "use the default".  These
settings stay out of ``SystemConfig`` on purpose: the config is hashed
into cache keys, and run settings never change a result.

``python -m repro config`` prints every knob with its effective value,
its source (``env`` or ``default``) and its doc line.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple


def _switch(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(raw)
    return raw == "1"


def _path(raw: str) -> str:
    if not raw.strip() or any(ord(ch) < 32 for ch in raw):
        raise ValueError(raw)
    return raw


def _positive(raw: str) -> float:
    value = float(raw)
    if not value > 0:
        raise ValueError(raw)
    return value


def _fault_plan(raw: str) -> str:
    from repro.faults.inject import ENV_VAR, parse_plan

    try:
        parse_plan(raw)
    except ValueError as exc:
        # Keep the parser's reason (which clause, and why) for the message.
        raise ValueError(str(exc).removeprefix(f"{ENV_VAR}: ")) from None
    return raw


#: kind -> (what a value must be, parser raising ValueError on malformed input)
KINDS: Dict[str, Tuple[str, Callable[[str], Any]]] = {
    "int": ("an integer", int),
    "positive": ("a number > 0", _positive),
    "switch": ("0 or 1", _switch),
    "path": ("a path", _path),
    "fault-plan": ("a fault plan", _fault_plan),
}


@dataclass(frozen=True)
class Setting:
    """One ``REPRO_*`` knob."""

    name: str
    kind: str
    default: Any
    doc: str
    minimum: Optional[float] = None
    #: How an unset knob with a ``None`` default reads.
    unset: str = "off"

    def show(self, value: Any) -> str:
        """A value as ``repro config`` and the README print it."""
        if value is None:
            return self.unset
        if isinstance(value, bool):
            return "1" if value else "0"
        return str(value)


_ROWS = (
    # Sizing (repro.core.experiment).
    Setting("REPRO_EVENTS", "int", 20_000, "measured trace events per core", 1),
    Setting("REPRO_WARMUP", "int", None, "warmup trace events per core", 0,
            unset="= REPRO_EVENTS"),
    Setting("REPRO_SEEDS", "int", 1, "seeds per data point (>1 adds 95% CIs)", 1),
    Setting("REPRO_SCALE", "int", 4, "capacity scale divisor (1 = full 4 MB L2)", 1),
    # Result cache and parallel sweeps (repro.core.diskcache/runner).
    Setting("REPRO_CACHE", "switch", True,
            "0 disables the on-disk result cache (sweep --resume keeps it on)"),
    Setting("REPRO_CACHE_DIR", "path", ".repro_cache", "on-disk result cache root"),
    Setting("REPRO_JOBS", "int", None, "default worker count for parallel sweeps", 1,
            unset="cpu count"),
    Setting("REPRO_POINT_TIMEOUT", "positive", None,
            "per-point wall-clock budget in seconds for parallel sweeps"),
    # Run telemetry (repro.obs.telemetry).
    Setting("REPRO_TELEMETRY", "path", None, "append JSONL run telemetry to this file"),
    # Fault injection (repro.faults).
    Setting("REPRO_FAULTS", "fault-plan", None,
            "deterministic fault-injection plan (see repro.faults.inject)"),
)

#: Every knob, by name, in documentation order.
TABLE: Dict[str, Setting] = {row.name: row for row in _ROWS}

_TABLE_DEFAULT = object()


def _parse(row: Setting, raw: str) -> Any:
    what, parse = KINDS[row.kind]
    try:
        value = parse(raw)
        if row.minimum is not None and not value >= row.minimum:
            raise ValueError(raw)
    except ValueError as exc:
        bound = f" >= {row.minimum:g}" if row.minimum is not None else ""
        why = f": {exc}" if row.kind == "fault-plan" else ""
        raise ValueError(f"{row.name} must be {what}{bound}, got {raw!r}{why}") from None
    return value


def get(name: str, default: Any = _TABLE_DEFAULT) -> Any:
    """The parsed value of knob ``name``, read from the environment now.

    Unset (or empty) returns the table default, or ``default`` when the
    caller passes one.  A malformed value raises :class:`ValueError`
    naming the knob; an unknown name raises :class:`KeyError`.
    """
    row = TABLE[name]
    raw = os.environ.get(name, "")
    if raw == "":
        return row.default if default is _TABLE_DEFAULT else default
    return _parse(row, raw)


def source(name: str) -> str:
    """``env`` when knob ``name`` is set, else ``default``."""
    TABLE[name]  # an unknown name raises KeyError
    return "env" if os.environ.get(name, "") != "" else "default"


def from_env() -> Dict[str, Any]:
    """Every knob set in the environment, with its parsed value (the
    ``settings`` field of ``simulate`` and ``sweep`` telemetry)."""
    return {name: get(name) for name in TABLE if source(name) == "env"}


def check() -> None:
    """Validate every knob; raise on the first malformed one."""
    for name in TABLE:
        get(name)


def put(name: str, value: Any) -> None:
    """Set knob ``name`` for this process and the workers it forks."""
    raw = str(value)
    _parse(TABLE[name], raw)
    os.environ[name] = raw


@contextmanager
def suspended(*names: str) -> Iterator[None]:
    """Unset the named knobs for the block, restoring them afterwards
    (including any value :func:`put` inside the block)."""
    for name in names:
        TABLE[name]  # an unknown name raises KeyError
    saved = {name: os.environ.pop(name, None) for name in names}
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
