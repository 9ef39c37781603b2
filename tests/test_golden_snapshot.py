"""Golden-snapshot regression test: locked full results for three
(workload, config) points.

Simulations are deterministic functions of (config, workload, seed), so
the complete result — every counter, float and histogram bucket — is
locked here bit-exactly.  Floats survive the JSON round trip exactly
(``repr``-based encoding), so comparison is plain equality on the
normalised dicts, and :func:`repro.report.export.result_fingerprint`
gives a one-line digest for error messages.

If a change *intentionally* alters simulation behaviour (a timing fix,
an accounting fix, a model change), regenerate the snapshots and say so
in the commit message::

    PYTHONPATH=src python tests/test_golden_snapshot.py regen

An unintentional diff here means behavioural drift — investigate before
regenerating.  Keep the point list small and cheap: this runs in tier 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data" / "golden_snapshots.json"

#: The locked points: one plain, one fully-featured, one adaptive, plus
#: variant points covering subsystems the named configs never reach
#: (stream-buffer prefetch placement; the NoC model + open-row DRAM; the
#: MSHR file + write-back buffer + tree-PLRU miss-handling path; the
#: pointer-chase prefetcher and BDI compression over the linked-data
#: ``chase`` workload's heap overlay).
POINTS = [
    ("zeus", "base"),
    ("oltp", "pref_compr"),
    ("jbb", "adaptive_compr"),
    ("apache", "pref+stream_buffer"),
    ("art", "pref_compr+noc+row_buffer"),
    ("apache", "pref_compr+mshr+wb+plru"),
    ("chase", "pref+pointer"),
    ("chase", "pref_compr+pointer+bdi"),
]

#: Run parameters for every locked point (small enough for tier 1).
RUN = dict(seed=0, events=1500, warmup=1500, n_cores=8, scale=4, bandwidth_gbs=20.0)

def _variant_config(key: str):
    """Configs for the ``base_key+feature+...`` variant points."""
    from dataclasses import replace

    from repro.core.experiment import make_config

    base_key, *features = key.split("+")
    config = make_config(
        base_key, n_cores=RUN["n_cores"], scale=RUN["scale"], bandwidth_gbs=RUN["bandwidth_gbs"]
    )
    for feature in features:
        if feature == "stream_buffer":
            config = replace(
                config, prefetch=replace(config.prefetch, placement="stream_buffer")
            )
        elif feature == "noc":
            config = replace(config, onchip_bandwidth_gbs=320.0)
        elif feature == "row_buffer":
            config = replace(config, memory=replace(config.memory, row_buffer=True))
        elif feature == "mshr":
            config = replace(config, memory=replace(config.memory, mshr_entries=4))
        elif feature == "wb":
            config = replace(config, memory=replace(config.memory, writeback_buffer=2))
        elif feature == "plru":
            config = replace(
                config,
                l1i=replace(config.l1i, replacement="plru"),
                l1d=replace(config.l1d, replacement="plru"),
                l2=replace(config.l2, replacement="plru"),
            )
        elif feature == "pointer":
            config = replace(config, prefetch=replace(config.prefetch, kind="pointer"))
        elif feature == "bdi":
            config = replace(config, l2=replace(config.l2, scheme="bdi"))
        else:
            raise ValueError(f"unknown golden variant feature {feature!r}")
    return config


def _simulate(workload: str, key: str):
    from repro.core.system import CMPSystem

    system = CMPSystem(_variant_config(key), workload, seed=RUN["seed"])
    return system.run(RUN["events"], warmup_events=RUN["warmup"], config_name=key)


def _normalise(full_dict: dict) -> dict:
    """One JSON round trip so live results compare equal to loaded ones
    (tuples become lists, int-keyed dicts become str-keyed)."""
    return json.loads(json.dumps(full_dict, sort_keys=True))


def _snapshot(workload: str, key: str) -> dict:
    from repro.report.export import result_fingerprint, result_to_full_dict

    result = _simulate(workload, key)
    return {
        "fingerprint": result_fingerprint(result),
        "result": _normalise(result_to_full_dict(result)),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    assert DATA.exists(), (
        f"{DATA} missing; generate with: PYTHONPATH=src python {__file__} regen"
    )
    return json.loads(DATA.read_text())


class TestGoldenSnapshots:
    def test_run_parameters_locked(self, golden):
        assert golden["run"] == _normalise(RUN)
        assert [tuple(p) for p in golden["points"]] == POINTS

    @pytest.mark.parametrize("workload,key", POINTS)
    def test_point_matches_snapshot(self, golden, workload, key):
        expected = golden["snapshots"][f"{workload}/{key}"]
        actual = _snapshot(workload, key)
        assert actual["fingerprint"] == expected["fingerprint"], (
            f"{workload}/{key} drifted: fingerprint "
            f"{actual['fingerprint'][:12]} != locked {expected['fingerprint'][:12]}.\n"
            "If this change is intentional, regenerate:\n"
            f"  PYTHONPATH=src python {__file__} regen\n"
            "First differing fields: "
            + ", ".join(_diff_paths(expected["result"], actual["result"])[:8])
        )
        # Fingerprint equality implies dict equality; assert it anyway so
        # a hash collision (or fingerprint bug) cannot mask a diff.
        assert actual["result"] == expected["result"]


def _diff_paths(a, b, prefix: str = "") -> list:
    """Dotted paths where two JSON-normalised values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        paths = []
        for k in sorted(set(a) | set(b)):
            paths += _diff_paths(a.get(k), b.get(k), f"{prefix}{k}.")
        return paths
    if a != b:
        return [f"{prefix.rstrip('.')}: {a!r} != {b!r}"]
    return []


def _regen() -> None:
    payload = {
        "run": _normalise(RUN),
        "points": [list(p) for p in POINTS],
        "snapshots": {f"{w}/{k}": _snapshot(w, k) for w, k in POINTS},
    }
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    for name, snap in payload["snapshots"].items():
        print(f"{name}: {snap['fingerprint']}")
    print(f"wrote {DATA}")


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "regen":
        _regen()
    else:
        print(f"usage: PYTHONPATH=src python {__file__} regen", file=sys.stderr)
        sys.exit(2)
