"""Command-line front end.

Exit codes:

* 0 - ran to completion (whether or not the trial converged: convergence
      is data, reported on stdout and in the CSV).
* 1 - usage or config error (bad flags, malformed or invalid scenario,
      empty scenario directory, an output path that cannot be written).
* 2 - an invariant check failed, or a `verify` criterion failed.
* 3 - statistical failure: the smoothing sampler exhausted its rejection
      budget, or `smoothing-test` exceeded its tolerance.

`experiment --threads N` with N > 1 runs trials in separate processes;
without it they run serially.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import ConfigError, _decimal_fraction, parse_config
from .engine import EngineError, derive_stream, run_experiment, run_trial
from .graphs import path_graph
from .io import open_trace_writer, render_amount, write_experiment_summary
from .smoothing import UNIFORMITY_BASES, exact_hitting_constants, sampler_total_variation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_STATISTICAL = 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; fold the
        # former into the usage-error code.
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an --out path that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynbal",
        description="Round-based load balancing on adversarial dynamic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single trial of a scenario")
    run_p.add_argument("config", help="scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", help="write the round-trace CSV to this file")
    run_p.set_defaults(handler=_cmd_run)

    exp_p = sub.add_parser("experiment", help="run all trials of a scenario")
    exp_p.add_argument("config", help="scenario JSON file")
    exp_p.add_argument("--seed", type=int, default=None, help="override the base seed")
    exp_p.add_argument("--out", help="directory for per-trial traces plus summary files")
    exp_p.add_argument("--threads", type=int, default=None, help="worker processes")
    exp_p.set_defaults(handler=_cmd_experiment)

    ver_p = sub.add_parser("verify", help="run the acceptance battery")
    scale = ver_p.add_mutually_exclusive_group()
    scale.add_argument("--fast", action="store_true", help="reduced sizes (default)")
    scale.add_argument("--full", action="store_true", help="the full battery")
    ver_p.add_argument("--scenarios", help="also run every scenario JSON in this directory")
    ver_p.set_defaults(handler=_cmd_verify)

    st_p = sub.add_parser(
        "smoothing-test",
        help="compare the sampler against exhaustive ball enumeration",
    )
    st_p.add_argument("n", type=int, help="node count (keep small: the ball is enumerated)")
    st_p.add_argument("k", type=int, help="smoothing distance")
    st_p.add_argument("samples", type=int)
    st_p.add_argument("--seed", type=int, default=0)
    st_p.add_argument("--tolerance", type=float, default=0.02, help="max total variation")
    st_p.set_defaults(handler=_cmd_smoothing_test)

    cal_p = sub.add_parser(
        "calibrate-c1",
        help="compute the hitting-rate constant behind the gap-reduction budgets exactly",
    )
    cal_p.add_argument("n", type=int, help="path length (keep small: the ball is enumerated)")
    cal_p.add_argument("k", help="smoothing amount (decimal)")
    cal_p.set_defaults(handler=_cmd_calibrate)

    return parser


# ----------------------------------------------------------------------
# run / experiment
# ----------------------------------------------------------------------


def _load_config(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    writer = open_trace_writer(args.out, cfg.checks) if args.out else None
    try:
        result = run_trial(cfg, seed=seed, trace_writer=writer)
    finally:
        if writer is not None:
            writer.close()

    print(f"seed: {seed}")
    print(f"converged: {'yes' if result.converged else 'no'}")
    print(f"converged_at: {'' if result.converged_at is None else result.converged_at}")
    print(f"rounds: {result.rounds_played}")
    print(f"budget: {result.budget}")
    print(f"final_gap: {render_amount(result.final_gap)}")
    print(f"invariant_failures: {result.invariant_failures}")
    for report in result.failure_reports:
        print(f"  round {report.round_index}: failed {', '.join(report.failed())}")
    if result.aborted:
        print(f"aborted: {result.aborted}")

    if result.aborted:
        return EXIT_STATISTICAL
    if result.invariant_failures:
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)

    out_dir = Path(args.out) if args.out else None
    factory = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

        def factory(seed, _dir=out_dir, _checks=cfg.checks):
            return open_trace_writer(_dir / f"trial_{seed}.csv", _checks)

    result = run_experiment(cfg, threads=args.threads, trace_writer_factory=factory)

    aggregate = {
        "trials": result.trial_count,
        "successes": result.successes,
        "fraction": result.success_fraction,
        "wilsonLow": result.wilson_low,
        "wilsonHigh": result.wilson_high,
        "meanRounds": result.mean_rounds,
        "invariantFailures": result.total_invariant_failures,
        "aborted": result.aborted_trials,
    }
    for key, value in aggregate.items():
        print(f"{key}: {value}")

    if out_dir is not None:
        with open(out_dir / "summary.csv", "w", newline="") as stream:
            write_experiment_summary(stream, result.trials)
        (out_dir / "aggregate.json").write_text(json.dumps(aggregate, indent=2) + "\n")

    if result.aborted_trials:
        return EXIT_STATISTICAL
    if result.total_invariant_failures:
        return EXIT_INVARIANT
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _cmd_verify(args) -> int:
    from . import acceptance

    scale = "full" if args.full else "fast"

    # Parse every scenario before the battery so an empty or missing
    # directory, or a malformed scenario, fails fast instead of after
    # minutes of runs.
    scenarios = []
    if args.scenarios:
        directory = Path(args.scenarios)
        if not directory.is_dir():
            raise ConfigError(f"{args.scenarios} is not a directory")
        scenarios = [(path, _load_config(path)) for path in sorted(directory.glob("*.json"))]
        if not scenarios:
            raise ConfigError("no scenarios found")

    all_ok = acceptance.run_battery(scale=scale, stream=sys.stdout)

    for path, cfg in scenarios:
        result = run_trial(cfg)
        ok = result.aborted is None and result.invariant_failures == 0
        status = "pass" if ok else "FAIL"
        detail = (
            f"converged at {result.converged_at}"
            if result.converged
            else f"gap {render_amount(result.final_gap)} after {result.rounds_played}"
        )
        print(f"[{status}] scenario {path.name}: {detail}")
        all_ok = all_ok and ok

    return EXIT_OK if all_ok else EXIT_INVARIANT


# ----------------------------------------------------------------------
# sampler diagnostics
# ----------------------------------------------------------------------

def _cmd_smoothing_test(args) -> int:
    if args.n < 3:
        raise ConfigError("smoothing-test needs n >= 3")
    if args.k < 1 or args.samples < 1:
        raise ConfigError("smoothing-test needs k >= 1 and samples >= 1")
    worst = 0.0
    for name, build in UNIFORMITY_BASES.items():
        rng = derive_stream(args.seed, f"smoothing-test:{name}")
        try:
            tv, ball_size = sampler_total_variation(build(args.n), args.k, args.samples, rng)
        except ValueError as exc:  # the ball is too large to enumerate
            raise ConfigError(str(exc)) from None
        worst = max(worst, tv)
        print(f"{name}: ball={ball_size} samples={args.samples} tv={tv:.4f}")
    print(f"worst_tv: {worst:.4f} (tolerance {args.tolerance})")
    return EXIT_OK if worst <= args.tolerance else EXIT_STATISTICAL


def _cmd_calibrate(args) -> int:
    k = _decimal_fraction(args.k, "k")  # as a config's k is parsed
    if args.n < 4:
        raise ConfigError("calibration needs n >= 4")
    try:
        constants = exact_hitting_constants(path_graph(args.n), k)
    except ValueError as exc:  # k <= 0, or a ball too large to enumerate
        raise ConfigError(str(exc)) from None
    for size, value in sorted(constants.items()):
        print(f"targets={size}: c={value} ({float(value):.3f})")
    suggested = min(constants.values())
    print(f"suggested_c1: {suggested} ({float(suggested):.3f}; configure at or below this)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
