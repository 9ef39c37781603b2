"""The one observer hook path: sensors compose without seeing each other.

Audit, trace, interval metrics and causal attribution all ride the same
:class:`repro.obs.observers.Observers` hub.  Armed together, each must
record exactly what it records alone, and the run must still reproduce
the observers-off fingerprint.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.core.experiment import make_config
from repro.core.system import CMPSystem
from repro.report.export import result_fingerprint

ALL_FOUR = dict(audit=True, trace=True, metrics=True, attribution=True)


@pytest.fixture
def no_repro_env(monkeypatch):
    """Ambient ``REPRO_*`` knobs would override the observer fields."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)


def _run(key, **observers):
    cfg = replace(
        make_config(key, n_cores=2, scale=16),
        audit_interval=256, metrics_interval=1000, **observers,
    )
    system = CMPSystem(cfg, "oltp", seed=3)
    return system, system.run(800, warmup_events=400)


def _attr_rows(result):
    return {k: v for k, v in result.extra.items() if k.startswith("attr_")}


@pytest.mark.parametrize("key", ["pref_compr", "adaptive_compr"])
def test_all_four_observers_compose(no_repro_env, key):
    both, composed = _run(key, **ALL_FOUR)
    _, plain = _run(key)
    assert result_fingerprint(composed) == result_fingerprint(plain)

    # The trace is the trace+attribution trace plus one instant per
    # in-loop audit check (the closing check of each phase draws none).
    traced, _ = _run(key, trace=True, attribution=True)
    audit_marks = [e for e in both.tracer.events if e[2] == "audit.check"]
    assert [e for e in both.tracer.events if e[2] != "audit.check"] == traced.tracer.events
    assert len(audit_marks) == both.auditor.checks_run - 2 > 0
    assert any(e[2].startswith("attr.miss.") for e in both.tracer.events)

    _, attributed = _run(key, attribution=True)
    assert _attr_rows(composed) == _attr_rows(attributed) != {}

    audited, _ = _run(key, audit=True)
    assert both.auditor.checks_run == audited.auditor.checks_run

    sampled, _ = _run(key, metrics=True)
    columns = [c for c in both.sampler.columns if not c.startswith("attr_")]
    assert both.sampler.samples == sampled.sampler.samples > 0
    for column in columns:
        assert both.sampler.series[column] == sampled.sampler.series[column], column
    # The attribution columns only read live ledgers when both are armed.
    assert any(both.sampler.series["attr_compulsory_rate"])
    assert not any(sampled.sampler.series["attr_compulsory_rate"])


def test_one_event_reaches_every_taker():
    """An event several sensors take reaches each once, in turn; an
    event nobody takes is bound to a no-op."""
    from repro.obs.observers import Observers

    seen = []

    class Sensor:
        def __init__(self, name):
            self.name = name

        def on_reset(self):
            seen.append(self.name)

    hub = Observers(sampler=Sensor("sampler"), attribution=Sensor("attribution"))
    hub.reset()
    assert seen == ["sampler", "attribution"]
    hub.bank_busy(0, 0.0, 2)  # taken by neither: a no-op
