"""Shared fixtures: tiny configurations that keep unit tests fast."""

from __future__ import annotations

import pytest

from repro.params import CacheConfig, L2Config, LinkConfig, MemoryConfig, PrefetchConfig, SystemConfig


@pytest.fixture(autouse=True, scope="session")
def _isolated_disk_cache(tmp_path_factory):
    """Point the on-disk result cache at a per-session temp dir so test
    runs neither read stale results from the working tree nor litter it."""
    import os

    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro_cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture(scope="session")
def memo_run():
    """Session-memoized runner for system-level suites.

    Runs one (config, workload, seed, events, warmup) point and returns
    its result.  Identical points requested by different tests (or
    different suites) are simulated once per session — the frozen
    config dataclasses hash, so the memo key is exact, not approximate.
    """
    from repro.core.system import CMPSystem

    cache = {}

    def run(config, workload="oltp", *, seed=3, events=1500, warmup=None):
        key = (config, workload, seed, events, warmup)
        if key not in cache:
            system = CMPSystem(config, workload=workload, seed=seed)
            cache[key] = system.run(events, warmup_events=warmup)
        return cache[key]

    return run


@pytest.fixture
def tiny_l1() -> CacheConfig:
    # 16 lines, 2-way, 8 sets
    return CacheConfig(size_bytes=1024, assoc=2, hit_latency=3)


@pytest.fixture
def tiny_l2() -> L2Config:
    # 256 lines uncompressed, 64 sets, 2 banks
    return L2Config(size_bytes=16 * 1024, n_banks=2, compressed=True)


@pytest.fixture
def tiny_system() -> SystemConfig:
    return SystemConfig(
        n_cores=2,
        l1i=CacheConfig(size_bytes=1024, assoc=2),
        l1d=CacheConfig(size_bytes=1024, assoc=2),
        l2=L2Config(size_bytes=16 * 1024, n_banks=2),
        link=LinkConfig(bandwidth_gbs=20.0),
        memory=MemoryConfig(),
        prefetch=PrefetchConfig(),
    )


def make_tiny_system(**overrides) -> SystemConfig:
    base = SystemConfig(
        n_cores=2,
        l1i=CacheConfig(size_bytes=1024, assoc=2),
        l1d=CacheConfig(size_bytes=1024, assoc=2),
        l2=L2Config(size_bytes=16 * 1024, n_banks=2),
    )
    if not overrides:
        return base
    from dataclasses import replace

    return replace(base, **overrides)
