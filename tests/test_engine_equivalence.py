"""Frozen engine behaviour: full-result hashes for hard-to-reach cases.

Each case below is a point where a rewrite of the simulator's access
path is most likely to drift without the headline goldens noticing:

* the fuzz trace grammar (random tiny geometries, stream buffers,
  adaptive compression, pointer chases, producer/consumer sharing);
* the warmup -> measure ``reset_stats`` boundary, including a hand-made
  reset on a cold system;
* the miss-handling knobs (MSHR file, write-back buffer, tree-PLRU);
* the pointer-chase prefetcher and BDI compression over the ``chase``
  heap.

Every case is locked as a sha256 of the canonical JSON of the *complete*
result dict (``result_to_full_dict``): every counter, float and
histogram bucket, the ``attr_*`` attribution extras included (unlike
``result_fingerprint``, which strips them).  The hashes were recorded
from the two-engine build in which a flat-array kernel and the object
model were diffed against each other on these same cases, so they pin
the behaviour both agreed on.

If a change *intentionally* alters simulation behaviour, regenerate and
say so in the commit message::

    PYTHONPATH=src python tests/test_engine_equivalence.py regen
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.experiment import make_config
from repro.core.system import CMPSystem
from repro.report.export import result_to_full_dict
from repro.verify.fuzz import random_config, random_trace
from repro.workloads.registry import all_names

DATA = Path(__file__).parent / "data" / "engine_goldens.json"

#: Case seeds, derived exactly as ``repro fuzz`` derives them so any
#: failure here can be replayed with ``repro fuzz --seed N --seeds 1``.
FUZZ_SEEDS = range(16)
EVENTS_PER_CORE = 400

RESET_KEYS = ("base", "pref_compr", "adaptive_compr")

#: Miss-handling knob combinations, each run over two prefetching configs.
MISS_HANDLING_VARIANTS = {
    "mshr": dict(mshr_entries=2),
    "wb_buffer": dict(writeback_buffer=1),
    "plru": dict(replacement="plru"),
    "all_knobs": dict(mshr_entries=4, writeback_buffer=2, replacement="plru"),
}
MISS_HANDLING_KEYS = ("pref_compr", "adaptive_compr")

#: The pointer-chase prefetcher against every compression scheme family,
#: plus BDI under the other prefetcher kinds, on the linked-data
#: ``chase`` workload whose heap gives the pointer scanner real lines.
POLICY_PAIRS = [
    ("pointer", "none"),
    ("pointer", "fpc"),
    ("pointer", "bdi"),
    ("stride", "bdi"),
    ("sequential", "bdi"),
]


def full_hash(result) -> str:
    blob = json.dumps(result_to_full_dict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fuzz_case(seed: int):
    rng = random.Random(0x5EED ^ seed)  # same derivation as repro.verify.fuzz
    config = random_config(rng)
    workload = rng.choice(all_names())
    trace = random_trace(rng, workload, config.n_cores, EVENTS_PER_CORE)
    events = trace.events_per_core
    return CMPSystem(config, trace=trace).run(events, warmup_events=events // 2)


def _reset_case(key: str):
    config = make_config(key, n_cores=2, scale=16)
    return CMPSystem(config, "zeus", seed=7).run(300, warmup_events=300)


def _with_miss_handling(config, *, mshr_entries=None, writeback_buffer=0,
                        replacement="lru"):
    config = replace(
        config,
        memory=replace(
            config.memory,
            mshr_entries=mshr_entries,
            writeback_buffer=writeback_buffer,
        ),
    )
    if replacement != "lru":
        config = replace(
            config,
            l1i=replace(config.l1i, replacement=replacement),
            l1d=replace(config.l1d, replacement=replacement),
            l2=replace(config.l2, replacement=replacement),
        )
    return config


def _miss_handling_case(key: str, variant: str):
    config = _with_miss_handling(
        make_config(key, n_cores=2, scale=16), **MISS_HANDLING_VARIANTS[variant]
    )
    return CMPSystem(config, "apache", seed=5).run(300, warmup_events=300)


def _policy_case(kind: str, scheme: str):
    key = "pref" if scheme == "none" else "pref_compr"
    config = make_config(key, n_cores=2, scale=16)
    config = replace(config, prefetch=replace(config.prefetch, kind=kind))
    if scheme != "none":
        config = replace(config, l2=replace(config.l2, scheme=scheme))
    return CMPSystem(config, workload="chase", seed=9).run(300, warmup_events=300)


def _explicit_reset_case():
    config = make_config("pref_compr", n_cores=2, scale=16)
    system = CMPSystem(config, "zeus", seed=11)
    system.reset_stats()  # no-op on a cold system, but exercises the path
    return system.run(250, warmup_events=250)


#: case name -> zero-argument runner.
CASES = {
    **{f"fuzz/{seed}": (lambda s=seed: _fuzz_case(s)) for seed in FUZZ_SEEDS},
    **{f"reset/{key}": (lambda k=key: _reset_case(k)) for key in RESET_KEYS},
    **{
        f"miss/{key}+{variant}": (lambda k=key, v=variant: _miss_handling_case(k, v))
        for key in MISS_HANDLING_KEYS
        for variant in sorted(MISS_HANDLING_VARIANTS)
    },
    **{
        f"policy/{kind}+{scheme}": (lambda k=kind, s=scheme: _policy_case(k, s))
        for kind, scheme in POLICY_PAIRS
    },
    "explicit_reset": _explicit_reset_case,
}


@pytest.fixture(scope="module")
def golden() -> dict:
    assert DATA.exists(), (
        f"{DATA} missing; generate with: PYTHONPATH=src python {__file__} regen"
    )
    return json.loads(DATA.read_text())


def _check(golden: dict, name: str) -> None:
    assert full_hash(CASES[name]()) == golden[name], (
        f"{name} drifted from its locked full-result hash.  If the change "
        f"is intentional, regenerate:\n  PYTHONPATH=src python {__file__} regen"
    )


def test_every_case_is_locked(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_grammar_results_identical(seed, golden):
    _check(golden, f"fuzz/{seed}")


@pytest.mark.parametrize("key", RESET_KEYS)
def test_reset_stats_keeps_engines_identical(key, golden):
    """The warmup -> measure boundary resets statistics but keeps machine
    state; every counter after it must match the locked result."""
    _check(golden, f"reset/{key}")


@pytest.mark.parametrize("variant", sorted(MISS_HANDLING_VARIANTS))
@pytest.mark.parametrize("key", MISS_HANDLING_KEYS)
def test_miss_handling_knobs_keep_engines_identical(key, variant, golden):
    _check(golden, f"miss/{key}+{variant}")


@pytest.mark.parametrize("kind,scheme", POLICY_PAIRS)
def test_pointer_and_bdi_policies_keep_engines_identical(kind, scheme, golden):
    _check(golden, f"policy/{kind}+{scheme}")


def test_explicit_reset_stats_midstream(golden):
    """Calling ``reset_stats`` by hand (as the replay/verify tooling
    does) must leave the run on its locked result."""
    _check(golden, "explicit_reset")


def _regen() -> None:
    hashes = {name: full_hash(run()) for name, run in CASES.items()}
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} case hashes to {DATA}")


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "regen":
        _regen()
    else:
        print(f"usage: PYTHONPATH=src python {__file__} regen", file=sys.stderr)
        sys.exit(2)
