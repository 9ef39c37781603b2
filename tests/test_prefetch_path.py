"""The fused prefetch-issue path: trace fidelity and a fixed call budget.

Each prefetch issue runs its shared-L2 leg in its own frame
(``MemoryHierarchy._issue_l1_prefetch`` / ``_issue_l2_prefetch``).  These
tests pin what that path must keep exactly — the byte-for-byte trace
stream of two prefetching points and one bank span per bank occupancy —
and how many Python calls it may spend per trace event.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from dataclasses import replace

import pytest

from repro.core.experiment import make_config
from repro.core.system import CMPSystem


@pytest.fixture
def no_repro_env(monkeypatch):
    """Ambient ``REPRO_*`` observers would add trace events and calls."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)


# sha256 of ``repr(tracer.events)``, recorded before the prefetch path was
# fused.  Stream-buffer placement is left out on purpose: its L2
# prefetches gained their bank spans at the same time.
TRACE_PINS = [
    ("oltp", "pref_compr", True, 9037,
     "e51802d99022081f257f751e1ff3323042630744ea7360f7d49f632f93eb4d7b"),
    ("zeus", "adaptive_compr", False, 7508,
     "b4ceb9c04460ba00b57fbf2379f1c8f725b83b536194bf18deed87daed796742"),
]


@pytest.mark.parametrize("workload,key,attribution,n_events,digest", TRACE_PINS)
def test_prefetching_trace_stream_is_pinned(
    no_repro_env, workload, key, attribution, n_events, digest
):
    cfg = replace(make_config(key, n_cores=2, scale=16), trace=True, attribution=attribution)
    system = CMPSystem(cfg, workload, seed=1)
    system.run(600, warmup_events=300)
    events = system.tracer.events
    assert len(events) == n_events
    assert hashlib.sha256(repr(events).encode()).hexdigest() == digest


def test_every_bank_occupancy_has_a_span(no_repro_env):
    """Stream-buffer L2 prefetches occupy a bank without counting as an
    L2 access; they used to leave no ``busy`` span behind."""
    cfg = make_config("pref", n_cores=4, scale=8)
    cfg = replace(cfg, trace=True, prefetch=replace(cfg.prefetch, placement="stream_buffer"))
    system = CMPSystem(cfg, "apache", seed=0)
    system.run(1500, warmup_events=0)  # the one reset runs before any event
    h = system.hierarchy
    spans = sum(1 for e in system.tracer.events if e[0] == "X" and e[2] == "busy")
    stream_buffer_issues = h.pf_stats["l2"].issued
    assert stream_buffer_issues > 0
    assert spans == h._l2_access_count + stream_buffer_issues


# Python-level calls per trace event, about 5% above the measured value
# (12.40 and 3.21: a demand access is one ``access`` frame).  Call counts
# depend on the interpreter's inlining, so only CPython 3.11 is held to them.
CALL_BUDGETS = [("fma3d", "pref_compr", 13.0), ("zeus", "base", 3.37)]


@pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="call budgets are calibrated on CPython 3.11",
)
# Ids name the point, not the budget, so a retuned budget keeps the test id.
@pytest.mark.parametrize(
    "workload,key,budget", CALL_BUDGETS, ids=[f"{w}-{k}" for w, k, _ in CALL_BUDGETS]
)
def test_calls_per_trace_event_stay_within_budget(no_repro_env, workload, key, budget):
    system = CMPSystem(make_config(key, n_cores=2, scale=8), workload, seed=0)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        system.run(1000, warmup_events=1000)
    finally:
        sys.setprofile(None)
    assert calls / (2 * 2000) <= budget
