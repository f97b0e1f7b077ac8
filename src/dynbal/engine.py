"""Trial and experiment runners: the round loop that ties everything together.

One round proceeds adversary -> smoothing -> algorithm -> commit -> checks.
The adversary sees only committed state; the sampler and the algorithm draw
from independent random streams derived from the trial seed by hashing, so
no component's consumption of randomness can perturb another's.

Idle fast-forward (skipping rounds an algorithm proves load-neutral) is only
applied when full traces are not being kept, so a full trace always lists
every simulated round.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil, log, sqrt
from random import Random
from typing import Optional

from .adversaries import AdversaryContext, AdversaryPolicy, SortingLinePolicy, make_adversary
from .algorithms import CONTINUOUS_VIA_INTEGRAL, make_algorithm
from .algorithms.drivers import decompose_by_unit, recombine_by_unit
from .config import TRACE_FULL, ScenarioConfig
from .dyadic import Dyadic, as_dyadic
from .graphs import is_connected
from .loads import (
    MODE_CONTINUOUS,
    MODE_INTEGRAL,
    LoadState,
    line_ramp,
    renormalise,
    single_source,
    to_dyadics,
    to_scaled,
    total_load,
    uniform_random,
)
from .metrics import (
    CHECK_POTENTIAL_DROP,
    CHECK_PREFIX_MONOTONE,
    InvariantReport,
    check_round,
    max_gap,
    potential,
    prefix_growth,
    prefix_sums,
    twice_shifted_load,
)
from .records import RoundTrace
from .smoothing import RejectionBudgetExceeded, SmoothingParams, k_smooth

# How many failing per-round reports a trial keeps for inspection.
MAX_FAILURE_REPORTS = 25

STREAM_LABELS = ("loads", "adversary", "smoothing", "algorithm")

THREADS_ENV_VAR = "DYNBAL_THREADS"


class EngineError(RuntimeError):
    """A component broke the rules of the round loop (engine-side bug)."""


def derive_stream(seed: int, label: str) -> Random:
    """Independent named random stream for one trial component.

    Hashing `seed:label` decorrelates the streams completely: nearby integer
    seeds or shared prefixes cannot produce overlapping generator states.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return Random(int.from_bytes(digest, "big"))


# ----------------------------------------------------------------------
# initial loads and budgets
# ----------------------------------------------------------------------


def build_initial_loads(cfg: ScenarioConfig, rng: Random) -> list:
    kind, params = cfg.initial_loads
    if kind == "explicit":
        loads = list(params)
    elif kind == "lineRamp":
        loads = line_ramp(cfg.n)
    elif kind == "singleSource":
        loads = single_source(cfg.n, params["total"])
    elif kind == "uniformRandom":
        loads = uniform_random(
            cfg.n, params["maxValue"], rng, params.get("granularityBits", 0)
        )
    else:  # pragma: no cover - config validation rules this out
        raise EngineError(f"unknown load generator {kind!r}")
    if cfg.mode == MODE_CONTINUOUS:
        loads = [as_dyadic(w) for w in loads]
    return loads


def deterministic_round_budget(n: int, total, tau) -> int:
    """Default budget ceil(60 * min(n^2 ln(n T / tau), n T / tau)).

    The additive arm is evaluated in exact rational arithmetic; the
    logarithmic arm in floats, which is safe because its ceil is never
    within one of the true value for the magnitudes involved.
    """
    total_fr = as_dyadic(total).as_fraction() if not isinstance(total, Fraction) else total
    tau_fr = as_dyadic(tau).as_fraction()
    if total_fr <= 0:
        return 0
    if tau_fr <= 0:
        raise EngineError("the default budget formula needs tau > 0")
    ratio = Fraction(n) * total_fr / tau_fr
    if ratio <= 1:
        return 0
    additive = 60 * ratio
    multiplicative = 60 * n * n * log(ratio)
    if additive <= multiplicative:
        return -(-additive.numerator // additive.denominator)
    return ceil(multiplicative)


def randomized_round_budget(n: int, total, tau) -> int:
    """Deterministic budget times an extra ln n: the randomised max-neighbor
    rule only matches the two-sided bound up to a logarithmic factor."""
    factor = max(1, ceil(log(n))) if n > 1 else 1
    return deterministic_round_budget(n, total, tau) * factor


def default_round_budget(cfg: ScenarioConfig, total) -> int:
    name = cfg.algorithm_name
    if name == "deterministic":
        return deterministic_round_budget(cfg.n, total, cfg.tau)
    if name == "randMaxNeighbor":
        return randomized_round_budget(cfg.n, total, cfg.tau)
    raise EngineError(f"algorithm {name} must supply its own planned budget")


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class TrialResult:
    seed: int
    rounds_played: int
    budget: int
    converged_at: Optional[int]
    final_loads: list
    final_gap: object
    min_max_gap: object
    total: object
    invariant_failures: int
    failure_reports: list[InvariantReport] = field(default_factory=list)
    traces: Optional[list[RoundTrace]] = None
    aborted: Optional[str] = None
    extra: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.converged_at is not None


@dataclass
class ExperimentResult:
    trials: list[TrialResult]
    successes: int
    success_fraction: float
    wilson_low: float
    wilson_high: float
    total_invariant_failures: int
    aborted_trials: int
    mean_rounds: float

    @property
    def trial_count(self) -> int:
        return len(self.trials)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# ----------------------------------------------------------------------
# single trial
# ----------------------------------------------------------------------


def _instantiate_adversary(cfg: ScenarioConfig) -> AdversaryPolicy:
    name, params = cfg.adversary
    kwargs = {}
    if name == "static":
        if "graph" in params:
            kwargs["shape"] = params["graph"]
        if "edges" in params:
            kwargs["edges"] = params["edges"]
    elif name == "randomConnected" and "extraEdgeProb" in params:
        kwargs["extra_edge_prob"] = params["extraEdgeProb"]
    return make_adversary(name, **kwargs)


def run_trial(
    cfg: ScenarioConfig,
    seed: Optional[int] = None,
    trace_writer=None,
) -> TrialResult:
    """Run one trial to convergence, budget exhaustion, or sampler abort."""
    if seed is None:
        seed = cfg.seed
    if cfg.algorithm_name == CONTINUOUS_VIA_INTEGRAL:
        return _run_continuous_via_integral(cfg, seed, trace_writer)

    rng_loads = derive_stream(seed, "loads")
    rng_adversary = derive_stream(seed, "adversary")
    rng_smoothing = derive_stream(seed, "smoothing")
    rng_algorithm = derive_stream(seed, "algorithm")

    # Loads are numerators over one shared exponent: loads[i] / 2**exp.
    n = cfg.n
    continuous = cfg.mode == MODE_CONTINUOUS
    initial = build_initial_loads(cfg, rng_loads)
    loads, exp = to_scaled(initial) if continuous else (initial, 0)
    total = Dyadic(total_load(loads), exp) if continuous else total_load(loads)

    adversary = _instantiate_adversary(cfg)
    adversary.bind(n, rng_adversary)
    algorithm = make_algorithm(cfg.algorithm_name, **cfg.algorithm[1])
    algorithm.start(list(loads), cfg.mode, rng_algorithm, k=cfg.k, tau=cfg.tau, n=n)

    budget = cfg.round_budget
    if budget is None:
        budget = algorithm.planned_rounds()
    if budget is None:
        budget = default_round_budget(cfg, total)

    smoothing = (
        SmoothingParams(k=cfg.k, max_rejections=cfg.max_rejections) if cfg.k > 0 else None
    )

    enabled = cfg.checks
    line_policy = adversary if isinstance(adversary, SortingLinePolicy) else None
    initial_prefix, prefix_exp = None, exp
    if CHECK_PREFIX_MONOTONE in enabled:
        if line_policy is None:
            raise EngineError("prefixMonotone needs the sortingLine adversary")
        initial_prefix = prefix_sums(line_policy.order, loads)

    keep_full = cfg.trace_level == TRACE_FULL
    sample_stride = cfg.trace_level[1] if isinstance(cfg.trace_level, tuple) else None

    traces: Optional[list[RoundTrace]] = [] if keep_full else None

    failure_reports: list[InvariantReport] = []
    invariant_failures = 0

    tau_num, tau_exp = cfg.tau.num, cfg.tau.exp
    gap = max_gap(loads)
    min_gap, min_exp = gap, exp
    # Cross-shifted comparisons (see loads.py): gap / 2**exp <= tau.
    converged_at: Optional[int] = 0 if gap << tau_exp <= tau_num << exp else None

    phi_prev = None
    if trace_writer is not None:
        phi_prev = potential(loads)
        trace_writer.round_row(
            round_index=0,
            phi=Dyadic(phi_prev, exp),
            max_gap=Dyadic(gap, exp),
            d_r=0,
            connections=0,
            converged=converged_at is not None,
        )

    rounds = 0
    last_emitted = 0
    last_matching: tuple = ()
    aborted: Optional[str] = None
    want_phi = CHECK_POTENTIAL_DROP in enabled

    if converged_at is None or not cfg.stop_on_converge:
        while rounds < budget:
            if algorithm.is_done(loads):
                break
            if not keep_full:
                skipped = algorithm.consume_idle_rounds(loads, budget - rounds)
                if skipped:
                    # Loads are untouched, so phi_prev stays valid.
                    rounds += skipped
                    continue
            rounds += 1

            ctx = AdversaryContext(
                round_index=rounds,
                loads=LoadState(cfg.mode, loads, exp),
                last_matching=last_matching,
            )
            base_graph = adversary.next_graph(ctx)
            if base_graph.n != n:
                raise EngineError("adversary changed the node count")
            if not is_connected(base_graph):
                raise EngineError("adversary produced a disconnected graph")
            line_order = list(line_policy.order) if line_policy is not None else None

            if smoothing is not None:
                try:
                    graph = k_smooth(base_graph, smoothing, rng_smoothing)
                except RejectionBudgetExceeded as exc:
                    aborted = str(exc)
                    rounds -= 1
                    break
            else:
                graph = base_graph

            outcome = algorithm.play_round(graph, loads)
            after, after_exp = outcome.new_loads, exp + outcome.shift
            if outcome.shift:
                after, after_exp = renormalise(after, after_exp)
            gap = max_gap(after)
            d_r = twice_shifted_load(outcome.matching)

            emit = trace_writer is not None and (
                keep_full or (sample_stride is not None and rounds % sample_stride == 0)
            )
            run_checks = bool(enabled) and rounds % cfg.check_stride == 0
            phi_after = potential(after) if (emit or (run_checks and want_phi)) else None

            trace = RoundTrace(
                rounds, graph, outcome.matching, gap, d_r, phi_after, exp, after_exp
            )
            report = None
            if run_checks:
                report = check_round(
                    LoadState(cfg.mode, loads, exp),
                    LoadState(cfg.mode, after, after_exp),
                    trace,
                    algorithm_kind=algorithm.kind,
                    enabled=enabled,
                    phi_before=phi_prev,
                    phi_after=phi_after,
                    line_order=line_order,
                    initial_prefix=initial_prefix,
                    prefix_exp=prefix_exp,
                )
                if not report.ok:
                    invariant_failures += len(report.failed())
                    if len(failure_reports) < MAX_FAILURE_REPORTS:
                        failure_reports.append(report)

            loads, exp = after, after_exp
            last_matching = tuple((u, v) for u, v, _ in outcome.matching)
            if gap << min_exp < min_gap << exp:
                min_gap, min_exp = gap, exp
            within_tau = gap << tau_exp <= tau_num << exp
            if converged_at is None and within_tau:
                converged_at = rounds

            if keep_full:
                traces.append(trace)
            if emit:
                trace_writer.round_row(
                    round_index=rounds,
                    phi=Dyadic(phi_after, exp),
                    max_gap=Dyadic(gap, exp),
                    d_r=Dyadic(d_r, trace.exp + 1),
                    connections=trace.connections,
                    converged=within_tau,
                    report=report,
                )
                last_emitted = rounds
            phi_prev = phi_after

            if converged_at is not None and cfg.stop_on_converge:
                break

    # A finished algorithm plays out the rest of its budget as no-ops: the
    # loads are frozen, so the remaining rounds are accounted without being
    # simulated.  (Convergence stops keep their round count; aborts do not
    # pretend to have run.)
    if (
        aborted is None
        and rounds < budget
        and not (converged_at is not None and cfg.stop_on_converge)
        and algorithm.is_done(loads)
    ):
        rounds = budget

    # The sorting-line guarantee also covers the order the adversary would
    # present next (it reflects the final round's exchanges).
    if (
        CHECK_PREFIX_MONOTONE in enabled
        and aborted is None
        and line_policy is not None
        and rounds > 0
    ):
        ctx = AdversaryContext(
            round_index=rounds + 1,
            loads=LoadState(cfg.mode, loads, exp),
            last_matching=last_matching,
        )
        line_policy.next_graph(ctx)
        witness = prefix_growth(line_policy.order, loads, exp, initial_prefix, prefix_exp)
        if witness is not None:
            report = InvariantReport(rounds + 1)
            report.checks[CHECK_PREFIX_MONOTONE] = False
            report.witnesses[CHECK_PREFIX_MONOTONE] = witness
            invariant_failures += 1
            if len(failure_reports) < MAX_FAILURE_REPORTS:
                failure_reports.append(report)

    final_gap = max_gap(loads)
    if trace_writer is not None and last_emitted != rounds:
        trace_writer.round_row(
            round_index=rounds,
            phi=Dyadic(potential(loads), exp),
            max_gap=Dyadic(final_gap, exp),
            d_r=0,
            connections=0,
            converged=converged_at is not None,
        )

    return TrialResult(
        seed=seed,
        rounds_played=rounds,
        budget=budget,
        converged_at=converged_at,
        final_loads=to_dyadics(loads, exp) if continuous else loads,
        final_gap=Dyadic(final_gap, exp) if continuous else final_gap,
        min_max_gap=Dyadic(min_gap, min_exp) if continuous else min_gap,
        total=total,
        invariant_failures=invariant_failures,
        failure_reports=failure_reports,
        traces=traces,
        aborted=aborted,
    )


# ----------------------------------------------------------------------
# continuous loads balanced by the integral machinery
# ----------------------------------------------------------------------


def _run_continuous_via_integral(cfg: ScenarioConfig, seed: int, trace_writer) -> TrialResult:
    """Decompose into multiples of tau/2, balance the integer parts to
    spread one, recombine.  The frozen remainders are each below the unit,
    so integral convergence forces the real spread under tau."""
    rng_loads = derive_stream(seed, "loads")
    loads = build_initial_loads(cfg, rng_loads)
    total_before = total_load(loads)

    unit = cfg.tau.half()
    quotients, remainders = decompose_by_unit(loads, unit)

    sub_cfg = replace(
        cfg,
        mode=MODE_INTEGRAL,
        initial_loads=("explicit", tuple(quotients)),
        tau=Dyadic(1),
        algorithm=("smoothedBalance", cfg.algorithm[1]),
        trials=1,
    )
    sub = run_trial(sub_cfg, seed=seed, trace_writer=trace_writer)

    final = recombine_by_unit(sub.final_loads, remainders, unit)
    total_after = total_load(final)
    if total_after != total_before:
        raise EngineError("recombination broke conservation")

    gap = max_gap(final)
    converged = gap <= cfg.tau
    converged_at = sub.converged_at
    if converged and converged_at is None:
        converged_at = sub.rounds_played
    elif not converged:
        converged_at = None

    return TrialResult(
        seed=seed,
        rounds_played=sub.rounds_played,
        budget=sub.budget,
        converged_at=converged_at,
        final_loads=final,
        final_gap=gap,
        min_max_gap=gap,
        total=total_before,
        invariant_failures=sub.invariant_failures,
        failure_reports=sub.failure_reports,
        traces=sub.traces,
        aborted=sub.aborted,
        extra={
            "unit": unit,
            "integralConvergedAt": sub.converged_at,
            "integralFinalGap": sub.final_gap,
        },
    )


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise EngineError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None


def _slim(result: TrialResult) -> TrialResult:
    """Drop per-round traces before aggregation (they pin graphs in memory)."""
    if result.traces is None:
        return result
    return replace(result, traces=None)


def _experiment_worker(job) -> TrialResult:
    cfg, seed = job
    return _slim(run_trial(cfg, seed=seed))


def run_experiment(
    cfg: ScenarioConfig,
    seeds: Optional[list[int]] = None,
    threads: Optional[int] = None,
    trace_writer_factory=None,
) -> ExperimentResult:
    """Run `cfg.trials` independent trials on consecutive seeds.

    With DYNBAL_THREADS > 1 trials run in separate processes; per-trial
    trace writers force the serial path since file handles do not cross
    process boundaries.
    """
    if seeds is None:
        seeds = [cfg.seed + i for i in range(cfg.trials)]
    if threads is None:
        threads = thread_count()

    if threads > 1 and len(seeds) > 1 and trace_writer_factory is None:
        jobs = [(cfg, s) for s in seeds]
        with ProcessPoolExecutor(max_workers=min(threads, len(seeds))) as pool:
            results = list(pool.map(_experiment_worker, jobs))
    else:
        results = []
        for s in seeds:
            writer = trace_writer_factory(s) if trace_writer_factory is not None else None
            try:
                results.append(_slim(run_trial(cfg, seed=s, trace_writer=writer)))
            finally:
                if writer is not None and hasattr(writer, "close"):
                    writer.close()

    successes = sum(1 for r in results if r.converged)
    low, high = wilson_interval(successes, len(results))
    return ExperimentResult(
        trials=results,
        successes=successes,
        success_fraction=successes / len(results) if results else 0.0,
        wilson_low=low,
        wilson_high=high,
        total_invariant_failures=sum(r.invariant_failures for r in results),
        aborted_trials=sum(1 for r in results if r.aborted),
        mean_rounds=(sum(r.rounds_played for r in results) / len(results)) if results else 0.0,
    )
