"""Write pinned.json: the outcome of every trial at the default workload seed.

    python3 perfbench/pin.py

Run it only when a change is meant to alter trial outcomes; the benchmark
counts every trial whose outcome differs from its pin as failed.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.import_dynbal()
    from dynbal.config import config_from_dict

    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    pinned: dict = {"seed": workloads.DEFAULT_SEED}
    for scale in workloads.SCALES:
        pinned[scale] = {}
        for workload in workloads.WORKLOADS:
            trials = workloads.build(workload, workloads.DEFAULT_SEED, scale)
            configs = [config_from_dict(t.config) for t in trials]
            runs = run.run_pass(trials, configs, f"pin-{scale}-{workload}")
            if run.check(runs, None):
                return 1
            pinned[scale][workload] = {r.trial.label: r.outcome for r in runs}
            print(f"{scale} {workload}: {sum(r.wall for r in runs):.2f} s")
    run.PINNED_FILE.write_text(json.dumps(pinned, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
