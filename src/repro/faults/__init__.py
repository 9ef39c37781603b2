"""Deterministic fault injection (see :mod:`repro.faults.inject`)."""

from repro.faults.inject import (
    ENV_VAR,
    KINDS,
    Clause,
    FaultHit,
    active,
    parse_plan,
    reset,
    should,
)

__all__ = [
    "ENV_VAR",
    "KINDS",
    "Clause",
    "FaultHit",
    "active",
    "parse_plan",
    "reset",
    "should",
]
