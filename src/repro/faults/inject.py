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

    REPRO_FAULTS="kill@2,5;hang(2.5)@7;corrupt@0-3"

Clause grammar (whitespace-insensitive)::

    clause   := kind [ '(' arg ')' ] '@' selector (',' selector)* [ 'x' times ]
    selector := N          fire at occurrence/point-index N (0-based)
              | N '-' M    fire for every index in [N, M]
              | '*'        fire always

The registered fault kinds and their injection sites:

=============== ================================================= =========
kind            site                                              arg
=============== ================================================= =========
``kill``        worker body (``runner._run_one``): ``os._exit``   exit code
``hang``        worker body: ``time.sleep`` (pair with            seconds
                ``REPRO_POINT_TIMEOUT``)                          (def 3600)
``corrupt``     ``DiskCache.put`` via ``durable.write_sealed``:   —
                flips a payload byte after hashing
=============== ================================================= =========

The worker-body sites fire only in pool workers, never in a serial run.

Selection semantics: sites that know their point index (the worker-body
sites) match selectors against that index and, by default, fire only on
the point's *first* attempt — so a killed worker's point is healed by
one retry.  A clause's ``x<times>`` suffix widens that to the first
``times`` attempts (``kill@0x99`` keeps failing through retry
exhaustion).  The durable-file site has no natural index and matches
against a per-process, per-kind occurrence counter.

With ``REPRO_FAULTS`` unset, :func:`should` is a single environment
lookup — the machinery adds nothing to a clean run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import settings

ENV_VAR = "REPRO_FAULTS"

#: Every fault kind with an injection site wired into the codebase.
KINDS = ("kill", "hang", "corrupt")


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
            if tag == "always":
                return True
        return False


def _parse_selector(text: str) -> Tuple:
    text = text.strip()
    if text == "*":
        return ("always",)
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
            selectors = [_parse_selector(s) for s in tail.split(",") if s.strip()]
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
    kind: str, *, index: Optional[int] = None, attempt: int = 0
) -> Optional[FaultHit]:
    """Consult the plan: does fault ``kind`` fire at this site?

    ``index`` is the point index for sites that have one; otherwise a
    per-process occurrence counter is used.  ``attempt`` gates repeat
    firings (see the ``x<times>`` clause suffix).
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
