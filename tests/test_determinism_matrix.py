"""Determinism guarantees across the full feature matrix.

Reproducibility is a headline property of the library: identical
(config, workload, seed) triples must give bit-identical statistics no
matter which features are enabled, because every speedup and interaction
number the benches report is a ratio of such runs.
"""

from __future__ import annotations

import pytest

from repro.core.experiment import CONFIG_FEATURES, make_config
from repro.core.system import CMPSystem
from repro.params import SystemConfig

#: The simulator's one engine (``SystemConfig.engine``, the name result
#: headers print).  Kept as a parameter so the test ids name the engine
#: whose determinism they pin.
ENGINES = (SystemConfig.engine,)


def fingerprint(result):
    return (
        result.elapsed_cycles,
        result.instructions,
        result.l1i.demand_misses,
        result.l1d.demand_misses,
        result.l2.demand_misses,
        result.l2.prefetch_hits,
        result.link.bytes_total,
        result.link.messages,
        result.prefetch["l2"].issued,
        result.compression.lines_held_sum,
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("key", sorted(CONFIG_FEATURES))
def test_every_config_is_deterministic(key, engine):
    cfg = make_config(key, n_cores=2, scale=16)
    assert cfg.engine == engine
    a = CMPSystem(cfg, "zeus", seed=3).run(400, warmup_events=200)
    b = CMPSystem(cfg, "zeus", seed=3).run(400, warmup_events=200)
    assert fingerprint(a) == fingerprint(b)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", ["oltp", "art"])
def test_workloads_deterministic_under_full_features(workload, engine):
    cfg = make_config("adaptive_compr", n_cores=2, scale=16)
    assert cfg.engine == engine
    a = CMPSystem(cfg, workload, seed=9).run(400, warmup_events=200)
    b = CMPSystem(cfg, workload, seed=9).run(400, warmup_events=200)
    assert fingerprint(a) == fingerprint(b)


def test_configs_differ_from_each_other():
    """Sanity: the feature knobs actually change behaviour (no silent
    no-op configurations)."""
    results = {}
    for key in ("base", "pref", "compr", "pref_compr"):
        cfg = make_config(key, n_cores=2, scale=16)
        results[key] = fingerprint(
            CMPSystem(cfg, "zeus", seed=0).run(600, warmup_events=300)
        )
    assert len(set(results.values())) == 4


def test_seed_changes_every_counter_stream():
    cfg = make_config("pref_compr", n_cores=2, scale=16)
    a = CMPSystem(cfg, "zeus", seed=0).run(600, warmup_events=300)
    b = CMPSystem(cfg, "zeus", seed=1).run(600, warmup_events=300)
    assert fingerprint(a) != fingerprint(b)
