"""dynbal benchmark: time a named workload end to end, or trace it by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload deterministic_exact --seed 3 --seconds 25 --trace 0

Every run
  1. measures set-up (`import dynbal` plus parsing the workload's configs)
     in fresh interpreters, several times, and keeps the median;
  2. replays the workload's pinned trial set (the default workload seed)
     in as many passes as fit in `--seconds`, checking every trial against
     the outcomes pinned in pinned.json;
  3. replays the same shapes once on `--seed`, checking only what holds on
     every seed: exact conservation, no invariant failure, no abort, and a
     trace CSV row for every round.

Timing always uses the pinned trial set: the smoothed drivers' cost swings
by a factor of four from seed to seed (5.7k to 22.8k simulated rounds for
smoothedBalance over seeds 0-5), far more than any bound could absorb.
Times are reported in reference seconds (see reference.py), because the
host's own speed drifts by up to 2x within a run.

With `--trace 0` the result holds the end-to-end metrics.  With `--trace 1`
the timed passes get half of `--seconds`, one more pass runs with every
layer wrapped by `spans.Tracer`, and the result holds the per-layer
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import workloads
from reference import REFERENCE_S, SpeedSampler, host_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
PINNED_FILE = HERE / "pinned.json"

SETUP_REPEATS = 7

# Runs in a fresh interpreter: argv = src dir, perfbench dir, workload.
# Prints the set-up time and then the reference loop's time.
SETUP_SNIPPET = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
from reference import host_speed
configs = [t.config for t in workloads.build(sys.argv[3], workloads.DEFAULT_SEED)]
t0 = time.perf_counter()
import dynbal
from dynbal.config import config_from_dict
for raw in configs:
    config_from_dict(raw)
elapsed = time.perf_counter() - t0
print(repr(elapsed), repr(host_speed()[0]))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "rounds_per_s": "rounds/s",
    "trial_s_p50": "s",
    "peak_rss_mb": "MiB",
}


@dataclass
class TrialRun:
    trial: workloads.Trial
    wall: float = 0.0
    cpu: float = 0.0
    # Reference-loop (wall, cpu) seconds around and during the trial.
    speed: tuple = (REFERENCE_S, REFERENCE_S)
    error: Optional[str] = None
    csv_path: Optional[Path] = None
    # The outcome as pinned in pinned.json, and what failed on any seed.
    outcome: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


# ----------------------------------------------------------------------
# running trials
# ----------------------------------------------------------------------


class SampledWriter:
    """A trace writer that lets a SpeedSampler poll after every row."""

    def __init__(self, writer, sampler: SpeedSampler):
        self._writer = writer
        self._sampler = sampler

    def round_row(self, **row) -> None:
        self._writer.round_row(**row)
        self._sampler.poll()

    def close(self) -> None:
        self._writer.close()


def run_one(trial: workloads.Trial, cfg, tag: str, tracer=None) -> TrialRun:
    """Run one trial through the public API, time it and record its outcome.

    The reference loop runs before and after the trial and, in a trial that
    writes a trace CSV, every SpeedSampler.INTERVAL_S seconds during it;
    the trial's times leave those runs out.  A `tracer` is installed for the
    trial call only, and then nothing samples during the trial, so no span
    holds reference-loop time.  Only the outcome is kept: a full-trace
    result holds every round, and later passes must not add to this one's
    memory.
    """
    from dynbal import engine, io

    run = TrialRun(trial)
    result = None
    sampler = SpeedSampler()
    before = host_speed()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        if trial.csv:
            run.csv_path = WORK_DIR / f"{tag}-{trial.label}.csv"
            writer = io.open_trace_writer(run.csv_path, cfg.checks)
            if tracer is None:
                writer = SampledWriter(writer, sampler)
            try:
                result = engine.run_trial(cfg, seed=trial.seed, trace_writer=writer)
            finally:
                writer.close()
        else:
            result = engine.run_experiment(cfg, seeds=[trial.seed], threads=1).trials[0]
    except Exception:  # a failing trial is counted, and the run goes on
        run.error = traceback.format_exc()
    finally:
        spent_wall, spent_cpu = sampler.spent()
        run.cpu = time.process_time() - c0 - spent_cpu
        run.wall = time.perf_counter() - t0 - spent_wall
        if tracer is not None:
            tracer.uninstall()
    speeds = [before, *sampler.samples, host_speed()]
    run.speed = (statistics.mean(w for w, _ in speeds), statistics.mean(c for _, c in speeds))
    if result is None:
        run.problems = [run.error.strip().splitlines()[-1]]
    else:
        run.outcome = describe(result, run.csv_path)
        run.problems = seed_free_problems(result, cfg, trial.seed, run.csv_path)
    return run


def ref_wall(run: TrialRun) -> float:
    """The trial's wall time in reference seconds (see reference.py)."""
    return run.wall * REFERENCE_S / run.speed[0]


def ref_cpu(run: TrialRun) -> float:
    """The trial's CPU time in reference seconds."""
    return run.cpu * REFERENCE_S / run.speed[1]


def run_pass(trials, configs, tag: str, tracer=None) -> list[TrialRun]:
    return [run_one(trial, cfg, tag, tracer) for trial, cfg in zip(trials, configs)]


def played(run: TrialRun) -> int:
    """Rounds the trial played (0 if it raised)."""
    return run.outcome.get("rounds_played", 0)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def describe(result, csv_path: Optional[Path]) -> dict:
    """The trial's outcome as pinned in pinned.json."""
    from dynbal.io import render_amount

    out = {
        "rounds_played": result.rounds_played,
        "converged_at": result.converged_at,
        "budget": result.budget,
        "invariant_failures": result.invariant_failures,
        "aborted": result.aborted,
        "final_loads_sha256": sha256_text(",".join(render_amount(w) for w in result.final_loads)),
    }
    if csv_path is not None:
        digest = hashlib.sha256()
        with open(csv_path, "rb") as stream:
            for chunk in iter(lambda: stream.read(1 << 20), b""):
                digest.update(chunk)
        out["csv_sha256"] = digest.hexdigest()
    return out


def seed_free_problems(result, cfg, seed: int, csv_path: Optional[Path]) -> list[str]:
    """Checks that hold on every seed."""
    from dynbal.engine import build_initial_loads, derive_stream
    from dynbal.loads import total_load

    problems = []
    if result.aborted is not None:
        problems.append(f"aborted: {result.aborted}")
    if result.invariant_failures:
        problems.append(f"{result.invariant_failures} invariant failures")
    initial = total_load(build_initial_loads(cfg, derive_stream(seed, "loads")))
    final = total_load(result.final_loads)
    if not (result.total == initial == final):
        problems.append(f"total load {initial} became {final}")
    if csv_path is not None:
        # No CSV trial fast-forwards (deterministic never idles, full traces
        # disable it), so every round from 0 to the last one is a row.
        rows = 0
        in_order = True
        with open(csv_path, newline="") as stream:
            reader = csv.reader(stream)
            next(reader)  # header
            for i, row in enumerate(reader):
                in_order = in_order and int(row[0]) == i
                rows += 1
        if not in_order or rows != result.rounds_played + 1:
            problems.append(f"CSV rows do not list rounds 0..{result.rounds_played} ({rows} rows)")
    return problems


def pinned_problems(outcome: dict, expected: Optional[dict]) -> list[str]:
    if expected is None:
        return ["no pinned outcome"]
    return [
        f"{key}: got {outcome.get(key)!r}, pinned {want!r}"
        for key, want in expected.items()
        if outcome.get(key) != want
    ]


def check(runs: list[TrialRun], pinned: Optional[dict]) -> int:
    """Report every failed trial on stderr and return how many failed.

    `pinned` maps trial labels to pinned outcomes, or is None for a seed
    without pinned outcomes.
    """
    failed = 0
    for run in runs:
        problems = list(run.problems)
        if pinned is not None and run.error is None:
            problems += pinned_problems(run.outcome, pinned.get(run.trial.label))
        if problems:
            failed += 1
            print(f"FAILED {run.trial.label} (seed {run.trial.seed}):", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            if run.error is not None:
                print(run.error, file=sys.stderr)
    return failed


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------


def measure_setup(workload: str) -> tuple[float, list[float]]:
    """Median set-up time, in reference seconds, over fresh interpreters
    started after one warm-up that leaves the bytecode cache written.
    Also returns the raw host seconds."""
    command = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE), workload]
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            elapsed, speed = map(float, done.stdout.split())
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_S / speed)
    return statistics.median(scaled), raw


def timed_passes(
    trials, configs, pinned, seconds: float, tag: str
) -> tuple[list[list[TrialRun]], int]:
    """As many passes over the trial set as fit in `seconds` (at least one),
    judging by the last pass's duration.  Returns the passes and the number
    of failed trials."""
    passes = []
    failed = 0
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(trials, configs, tag))
        failed += check(passes[-1], pinned)
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:
            return passes, failed


def per_trial_medians(passes: list[list[TrialRun]], measure) -> list[float]:
    """Each trial's median over its repeats, in reference seconds."""
    return [statistics.median(measure(runs[i]) for runs in passes) for i in range(len(passes[0]))]


def end_to_end(passes: list[list[TrialRun]], setup_s: float) -> dict:
    walls = per_trial_medians(passes, ref_wall)
    rounds = sum(played(run) for run in passes[0])
    wall_s = sum(walls)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": sum(per_trial_medians(passes, ref_cpu)),
        "rounds_per_s": rounds / wall_s,
        "trial_s_p50": statistics.median(walls),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def csv_bytes(runs: list[TrialRun]) -> int:
    return sum(run.csv_path.stat().st_size for run in runs if run.csv_path is not None)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_dynbal() -> None:
    """Import dynbal from this checkout's src/, never from anywhere else."""
    if not (SRC / "dynbal" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'dynbal'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dynbal

    if Path(dynbal.__file__).resolve().parent != (SRC / "dynbal").resolve():
        raise SystemExit(f"error: imported dynbal from {dynbal.__file__}, not {SRC}")


def measure(workload: str, seed: int, seconds: float, trace: int, scale: str = "full") -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    from dynbal.config import config_from_dict

    pinned = json.loads(PINNED_FILE.read_text())[scale][workload]
    WORK_DIR.mkdir(parents=True, exist_ok=True)

    setup_s = None
    if not trace:
        setup_s, setup_samples = measure_setup(workload)
        print("set-up, host seconds: " + " ".join(f"{s:.4f}" for s in setup_samples))

    trials = workloads.build(workload, workloads.DEFAULT_SEED, scale)
    configs = [config_from_dict(t.config) for t in trials]

    # Run files are named after the scale and workload, so a self-test
    # never overwrites a benchmark run's files.
    tag = f"{scale}-{workload}"
    passes, failed = timed_passes(
        trials, configs, pinned, seconds / 2 if trace else seconds, f"{tag}-pinned"
    )
    attempted = sum(len(runs) for runs in passes)
    e2e = end_to_end(passes, setup_s)

    if trace:
        import spans

        tracer = spans.Tracer()
        traced = run_pass(trials, configs, f"{tag}-traced", tracer)
        failed += check(traced, pinned)
        attempted += len(traced)
        # Observation neutrality: tracing must not change any outcome.
        for run, reference in zip(traced, passes[0]):
            if run.outcome != reference.outcome:
                failed += 1
                print(f"FAILED {run.trial.label}: traced outcome differs", file=sys.stderr)
        traced_wall = sum(run.wall for run in traced)
        totals = tracer.totals()
        per_layer = tracer.per_layer_metrics(
            totals,
            rounds_played=sum(played(run) for run in traced),
            traced_wall=traced_wall,
            overhead=sum(ref_wall(run) for run in traced) / e2e["wall_s"],
            csv_bytes=csv_bytes(traced),
        )
        tracer.write_spans(WORK_DIR / f"{tag}-spans.csv")
        print("layer self-time shares of traced wall:")
        layers = spans.layer_self_seconds(totals)
        for layer, layer_s in sorted(layers.items(), key=lambda item: -item[1]):
            print(f"  {layer:12s} {layer_s / traced_wall:7.2%}  ({layer_s:.3f} s)")
        metrics = {
            name: {"value": per_layer[name], "unit": unit}
            for name, unit in spans.PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
        }

    held_trials = workloads.build(workload, seed, scale)
    held_configs = [config_from_dict(t.config) for t in held_trials]
    held = run_pass(held_trials, held_configs, f"{tag}-heldout")
    failed += check(held, pinned if seed == workloads.DEFAULT_SEED else None)
    attempted += len(held)

    print(f"workload {workload}: {len(passes)} passes; host s / reference s per trial:")
    for i, trial in enumerate(trials):
        times = " ".join(f"{runs[i].wall:.3f}/{ref_wall(runs[i]):.3f}" for runs in passes)
        print(f"  {trial.label}: {times}")
    held_rounds = sum(played(run) for run in held)
    held_s = sum(ref_wall(run) for run in held)
    print(f"held-out seed {seed}: {held_rounds} rounds in {held_s:.3f} reference s")
    print(f"trials_failed = {failed / attempted} share ({failed} of {attempted} trials)")
    if not trace:
        print(f"trial_s_p50 over {len(trials)} trials x {len(passes)} repeats = "
              f"{len(trials) * len(passes)} samples")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']} {entry['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_dynbal()
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
