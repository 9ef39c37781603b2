"""What a process imports: a plain point and a disk-cache hit load only
the modules they use (package exports resolve on first access), and no
process loads OpenSSL: every hash goes through :mod:`repro.digest`.

Each case runs in a fresh interpreter with every ``REPRO_*`` knob
cleared, so neither this test session's imports nor its environment
can leak in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: OpenSSL's modules; ``hashlib`` imports ``_hashlib``, which loads libcrypto.
OPENSSL = ("hashlib", "_hashlib", "_ssl")

#: Never loaded by an observers-off point.
PLAIN_POINT_NEVER_LOADS = (
    "multiprocessing",
    "concurrent.futures",
    "repro.verify.oracle",
    "repro.verify.tap",
    "repro.obs.audit",
    "repro.obs.trace",
    "repro.obs.metrics",
    "repro.obs.attribution",
    "repro.obs.observers",
    "repro.report.charts",
    "repro.trace.io",
    "pickle",
    *OPENSSL,
)

POINT = dict(n_cores=2, scale=32, events=200, warmup=100)


def run_fresh(code: str, **env_extra: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_plain_point_loads_no_pool_oracle_observer_or_writer():
    """...and leaves every emitting component's one observer reference
    None, so each event site costs one ``is not None`` test."""
    loaded, observed = run_fresh(f"""
        import json, sys
        from repro import CMPSystem, make_config
        from repro.report.export import result_fingerprint
        config = make_config("pref_compr", n_cores={POINT['n_cores']},
                             scale={POINT['scale']})
        system = CMPSystem(config, "zeus", seed=0)
        result = system.run({POINT['events']}, warmup_events={POINT['warmup']})
        result_fingerprint(result)
        h = system.hierarchy
        parts = [system, h, h.link, h.noc, h.dram, h.compression_policy, h.l2_adaptive]
        parts += [pf.adaptive for pf in h.pf_l1i + h.pf_l1d + h.pf_l2]
        names = {PLAIN_POINT_NEVER_LOADS!r}
        print(json.dumps([
            [name for name in names if name in sys.modules],
            [type(p).__name__ for p in parts if p.observer is not None],
        ]))
    """)
    assert loaded == []
    assert observed == []


def test_disk_cache_hit_loads_no_simulator(tmp_path):
    code = f"""
        import json, sys
        from repro import run_point
        from repro.core.experiment import last_point_source
        run_point("zeus", "base", **{POINT!r})
        print(json.dumps([
            last_point_source(),
            "repro.core.hierarchy" in sys.modules,
            [name for name in {OPENSSL!r} if name in sys.modules],
        ]))
    """
    cache = dict(REPRO_CACHE_DIR=str(tmp_path / "cache"))
    assert run_fresh(code, **cache) == ["sim", True, []]
    assert run_fresh(code, **cache) == ["disk", False, []]
