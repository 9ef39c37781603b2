"""Deterministic fault injection for the sweep-execution stack.

Production sweeps die in ways unit tests never exercise: a worker is
OOM-killed mid-point, a point hangs on a pathological input, a durable
file comes back torn.  This module makes those failures *injectable and
deterministic* so every recovery path in :mod:`repro.core.runner` and
:mod:`repro.core.durable` is exercised by tests and by the CI chaos job
— not just reasoned about.

Faults are described by a plan in the ``REPRO_FAULTS`` environment
variable (inherited by worker processes; declared and validated with
every other knob in :mod:`repro.settings`), a semicolon-separated list
of clauses::

    REPRO_FAULTS="kill@2;transient@0,5;hang(2.5)@7;corrupt@every:3;slowio(0.01)@p:0.5:42"

Clause grammar (whitespace-insensitive)::

    clause   := kind [ '(' arg ')' ] '@' selector (',' selector)* [ 'x' times ]
    selector := N          fire at occurrence/point-index N (0-based)
              | N '-' M    fire for every index in [N, M]
              | 'every:' K fire when index % K == 0
              | 'p:' P ':' SEED
                           fire pseudo-randomly with probability P,
                           derived from a stable hash of
                           (SEED, kind, index) — deterministic across
                           runs and processes
              | '*'        fire always

The registered fault kinds and their injection sites:

=============== ================================================= =========
kind            site                                              arg
=============== ================================================= =========
``kill``        worker body (``runner._run_one``): ``os._exit``   exit code
``hang``        worker body: ``time.sleep`` (pair with            seconds
                ``REPRO_POINT_TIMEOUT``)                          (def 3600)
``transient``   worker body: raises :class:`TransientFault`       —
                (retryable; the runner retries it)
``corrupt``     ``DiskCache.put`` via ``durable.write_sealed``:   —
                flips a payload byte after hashing
``slowio``      ``DiskCache.get``/``put``: sleeps before I/O      seconds
=============== ================================================= =========

Selection semantics: sites that know their point index (the worker-body
sites) match selectors against that index and, by default, fire only on
the point's *first* attempt — so an injected transient fault is healed
by one retry.  A clause's ``x<times>`` suffix widens that to the first
``times`` attempts (``transient@0x99`` keeps failing through retry
exhaustion).  Sites with no natural index (the disk-cache and
durable-file sites) match against a per-process, per-kind occurrence
counter.

With ``REPRO_FAULTS`` unset, :func:`should` is a single environment
lookup — the machinery adds nothing to a clean run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import settings
from repro.digest import sha256

ENV_VAR = "REPRO_FAULTS"

#: Every fault kind with an injection site wired into the codebase.
KINDS = ("kill", "hang", "transient", "corrupt", "slowio")


class TransientFault(RuntimeError):
    """An injected failure the runner is expected to retry away."""


@dataclass(frozen=True)
class FaultHit:
    """One fault firing: which kind, and the clause's optional argument."""

    kind: str
    arg: Optional[float] = None


@dataclass
class Clause:
    """One parsed ``kind(arg)@selectors x times`` clause."""

    kind: str
    arg: Optional[float] = None
    selectors: List[Tuple] = field(default_factory=list)
    times: int = 1

    def matches(self, value: int) -> bool:
        for sel in self.selectors:
            tag = sel[0]
            if tag == "at" and value == sel[1]:
                return True
            if tag == "range" and sel[1] <= value <= sel[2]:
                return True
            if tag == "every" and value % sel[1] == 0:
                return True
            if tag == "always":
                return True
            if tag == "prob" and _stable_unit(sel[2], self.kind, value) < sel[1]:
                return True
        return False


def _stable_unit(seed: int, kind: str, value: int) -> float:
    """A deterministic pseudo-random float in [0, 1) from (seed, kind,
    value) — stable across processes, platforms and Python versions
    (unlike ``hash()``)."""
    digest = sha256(f"{seed}:{kind}:{value}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _parse_selector(text: str, kind: str) -> Tuple:
    text = text.strip()
    if text == "*":
        return ("always",)
    if text.startswith("every:"):
        step = int(text[len("every:"):])
        if step <= 0:
            raise ValueError(f"every:{step} needs a positive step")
        return ("every", step)
    if text.startswith("p:"):
        parts = text[2:].split(":")
        if len(parts) != 2:
            raise ValueError(f"probabilistic selector {text!r} must be p:<prob>:<seed>")
        prob = float(parts[0])
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"probability {prob} outside [0, 1]")
        return ("prob", prob, int(parts[1]))
    if "-" in text:
        lo, hi = text.split("-", 1)
        return ("range", int(lo), int(hi))
    return ("at", int(text))


def parse_plan(spec: str) -> Dict[str, List[Clause]]:
    """Parse a ``REPRO_FAULTS`` value into clauses grouped by kind.

    Raises :class:`ValueError` with a readable message on any malformed
    clause (the CLI surfaces it as a one-line error, exit code 2).
    """
    plan: Dict[str, List[Clause]] = {}
    for raw in spec.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        try:
            head, _, tail = raw.partition("@")
            if not _ or not tail:
                raise ValueError("missing '@<selector>'")
            head = head.strip()
            arg: Optional[float] = None
            if head.endswith(")") and "(" in head:
                head, arg_text = head[:-1].split("(", 1)
                arg = float(arg_text)
            kind = head.strip()
            if kind not in KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; choose from {', '.join(KINDS)}"
                )
            times = 1
            if "x" in tail:
                tail, times_text = tail.rsplit("x", 1)
                times = int(times_text)
                if times <= 0:
                    raise ValueError(f"x{times} must fire at least once")
            selectors = [_parse_selector(s, kind) for s in tail.split(",") if s.strip()]
            if not selectors:
                raise ValueError("no selectors")
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR}: bad clause {raw!r}: {exc}") from None
        plan.setdefault(kind, []).append(
            Clause(kind=kind, arg=arg, selectors=selectors, times=times)
        )
    return plan


# Parsed-plan cache keyed by the raw spec string (workers inherit the
# env, so each process parses at most once per distinct value), plus the
# per-kind occurrence counters used by sites with no point index.
_PARSED: Dict[str, Dict[str, List[Clause]]] = {}
_COUNTERS: Dict[str, int] = {}


def active() -> bool:
    """Is a fault plan installed?"""
    return settings.get(ENV_VAR) is not None


def reset() -> None:
    """Drop parsed plans and occurrence counters (test isolation)."""
    _PARSED.clear()
    _COUNTERS.clear()


def should(
    kind: str,
    *,
    index: Optional[int] = None,
    attempt: int = 0,
    token: Optional[str] = None,
) -> Optional[FaultHit]:
    """Consult the plan: does fault ``kind`` fire at this site?

    ``index`` is the point index for sites that have one; otherwise a
    per-process occurrence counter is used.  ``attempt`` gates repeat
    firings (see the ``x<times>`` clause suffix).  ``token`` is accepted
    for site context (e.g. a cache key) but does not affect selection —
    selection must stay deterministic under retry and reordering.
    """
    spec = settings.get(ENV_VAR)
    if spec is None:
        return None
    plan = _PARSED.get(spec)
    if plan is None:
        plan = _PARSED[spec] = parse_plan(spec)
    clauses = plan.get(kind)
    value = index
    if value is None:
        value = _COUNTERS.get(kind, 0)
        _COUNTERS[kind] = value + 1
    if not clauses:
        return None
    for clause in clauses:
        if attempt < clause.times and clause.matches(value):
            return FaultHit(kind=kind, arg=clause.arg)
    return None
