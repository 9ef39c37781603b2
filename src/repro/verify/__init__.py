"""Differential verification subsystem.

Four pillars on top of the invariant auditor
(:func:`repro.obs.audit.audit_hierarchy`), which checks one live
hierarchy:

* :mod:`repro.verify.oracle` — an independent, timing-free functional
  reference hierarchy replayed against a recorded op stream
  (:mod:`repro.verify.tap`), compared field-by-field with the timing
  simulator's counters and final machine state.
* :mod:`repro.verify.fpc_ref` — a from-scratch bit-level FPC codec for
  differential comparison against :mod:`repro.compression.fpc`.
* :mod:`repro.verify.properties` — metamorphic equivalences and
  monotonicities (compression no-op, prefetch degree 0, bandwidth
  monotonicity, reset-stats conservation, determinism across runners).
* :mod:`repro.verify.fuzz` — a seeded trace/config fuzzer that runs the
  oracle, the properties and the runtime auditor on random inputs,
  shrinks failures and persists a crash corpus (``repro fuzz``).
"""

from repro._lazy import lazy_exports

lazy_exports(globals(), {
    "repro.verify.oracle": ("OracleMismatch", "verify_system"),
})

__all__ = [
    "OracleMismatch",
    "verify_system",
]
