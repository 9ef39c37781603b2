"""Record the expected ``result_fingerprint`` of every workload and seed.

    python3 simbench/record.py

Writes ``simbench/fingerprints.json``: for each workload, one
fingerprint per workload seed ``0 .. SEED_SPACE-1``.
Re-record only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    run.clear_repro_env()
    recorded = {}
    for name, workload in run.WORKLOADS.items():
        cfg = run.build_config(workload)
        prints = []
        for wseed in range(run.SEED_SPACE):
            t0 = time.perf_counter()
            result, _, _ = run.run_point(cfg, workload.trace, wseed)
            prints.append(run.result_fingerprint(result))
            print(f"{name} seed {wseed}: {time.perf_counter() - t0:.2f} s",
                  file=sys.stderr)
        recorded[name] = prints
    run.FINGERPRINTS.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
