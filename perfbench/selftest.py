"""Self-test of the benchmark on a smoke size of every workload.

    python3 perfbench/selftest.py

For each workload it checks that
  1. a run emits every metric BENCHMARK.json names, with its unit, for
     `--trace 0` and `--trace 1`, and reports itself correct;
  2. the pinned-outcome check fails when a pinned digest is wrong;
  3. a traced pass gives the same outcomes and digests as an untraced one.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import run
import workloads

SMOKE_SECONDS = 0.05


def check_workload(workload: str, bench: dict) -> list[str]:
    import spans
    from dynbal.config import config_from_dict

    errors = []
    pinned = json.loads(run.PINNED_FILE.read_text())["smoke"][workload]

    # 1. every named metric, with its unit
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.measure(workload, 1, SMOKE_SECONDS, trace, scale="smoke")
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        if got != want:
            errors.append(f"--trace {trace} emitted {got}, BENCHMARK.json names {want}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            errors.append(f"--trace {trace} run was not correct: {result}")

    trials = workloads.build(workload, workloads.DEFAULT_SEED, "smoke")
    configs = [config_from_dict(t.config) for t in trials]
    plain = run.run_pass(trials, configs, f"selftest-{workload}")
    if run.check(plain, pinned):
        errors.append("untraced outcomes differ from their pins")

    # 2. a wrong pinned digest is caught
    for key in ("final_loads_sha256", "csv_sha256"):
        for trial_run in plain:
            if key in trial_run.outcome:
                wrong = copy.deepcopy(pinned)
                wrong[trial_run.trial.label][key] = "0" * 64
                with contextlib.redirect_stderr(io.StringIO()):
                    failed = run.check(plain, wrong)
                found = run.pinned_problems(trial_run.outcome, wrong[trial_run.trial.label])
                if failed != 1 or not any(p.startswith(key) for p in found):
                    errors.append(f"a wrong {key} for {trial_run.trial.label} was not caught")
                break

    # 3. tracing changes no outcome
    traced = run.run_pass(trials, configs, f"selftest-{workload}-traced", spans.Tracer())
    for a, b in zip(plain, traced):
        if not a.outcome or a.outcome != b.outcome:
            errors.append(f"{a.trial.label}: traced outcome {b.outcome} != untraced {a.outcome}")
    return errors


def main() -> int:
    run.import_dynbal()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in workloads.WORKLOADS:
        errors = check_workload(workload, bench)
        print(f"{workload}: {'ok' if not errors else 'FAILED'}")
        for error in errors:
            print(f"  {error}")
        failures += len(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
