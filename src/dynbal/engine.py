"""Trial and experiment runners: the round loop that ties everything together.

One round proceeds adversary -> smoothing -> algorithm -> commit -> checks.
The adversary sees only committed state; the sampler and the algorithm draw
from independent random streams derived from the trial seed by hashing, so
no component's consumption of randomness can perturb another's.

Idle fast-forward (skipping rounds an algorithm proves load-neutral)
applies at every trace level, so no observation knob changes an outcome;
a trace shows a skipped span as a jump in its round column.  Each loop
asks the algorithm one idle call, `consume_idle_rounds`; a finished
algorithm's loads are frozen, so that call accounts the rest of its budget
in one step without simulating it.

A trial binds its components' round methods once.  The adversary is
handed the committed record and the last round's `matching` as they stand;
`d_r` is derived once per round record (see records.py), so an algorithm
that hands a record back again does not pay for it twice.

The committed loads are one `LoadState` record over an immutable tuple (see
loads.py), the only loads object a component is handed.  A round whose
algorithm hands back the very tuple it was given, unshifted, moved no
load: the trial keeps the very record, and with it the gap and whatever
the trace and the checks derived from it.  Any other round commits a new
record.  Each round is checked against the record it started from, so a
round that creates or destroys load fails conservation alone.  A checked
round that moved no load keeps its verdicts on its round record (see
records.py); records judged alike share one verdict dict.  A round that
hands the record back on the same committed record and line order (by
identity) reuses them instead of calling `check_round`; the graph object
must match too only when an enabled check reads it (`GRAPH_CHECKS`), as
smoothing draws a new graph almost every round.  Such a round still
counts its failures, and builds a report of its own index only when it
failed.  A trace row reads the round's verdict dict.
A committed load that is not an integer numerator stops the trial with an
`EngineError` naming the node and the round: the round it was committed in
when a shift fails on it, else the last round, when the final vector is
searched once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil, log, sqrt
from random import Random
from typing import Optional

from .adversaries import SortingLinePolicy, make_adversary
from .algorithms import CONTINUOUS_VIA_INTEGRAL, make_algorithm
from .algorithms.drivers import decompose_by_unit, recombine_by_unit
from .config import ScenarioConfig
from .dyadic import Dyadic
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
    CHECK_PREFIX_MONOTONE,
    GRAPH_CHECKS,
    InvariantReport,
    check_round,
    max_gap,
    prefix_growth,
    prefix_sums,
    state_gap,
    state_potential,
    twice_shifted_load,
)
from .records import RoundTrace
from .smoothing import RejectionBudgetExceeded, SmoothingParams, k_smooth

# How many failing per-round reports a trial keeps for inspection.
MAX_FAILURE_REPORTS = 25


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
    return loads


def deterministic_round_budget(n: int, total, tau) -> int:
    """Default budget ceil(60 * min(n^2 ln(n T / tau), n T / tau)), for an
    int or Fraction total and tau.

    The additive arm is evaluated in exact rational arithmetic; the
    logarithmic arm in floats, which is safe because its ceil is never
    within one of the true value for the magnitudes involved.
    """
    total_fr, tau_fr = Fraction(total), Fraction(tau)
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
    aborted: Optional[str] = None

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


def _check_integer_loads(loads, when: str) -> None:
    """Raise `EngineError` at the first load numerator that is not an int."""
    for node, w in enumerate(loads):
        if not isinstance(w, int):
            raise EngineError(
                f"{when}: the algorithm committed the non-integer load {w!r} at node {node}"
            )


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
    state = LoadState(cfg.mode, loads, exp)
    loads = state.loads
    total = total_load(loads)

    adversary = make_adversary(cfg.adversary[0], **cfg.adversary[1])
    adversary.bind(n, rng_adversary)
    algorithm = make_algorithm(cfg.algorithm_name, **cfg.algorithm[1])
    algorithm.start(loads, cfg.mode, rng_algorithm, k=cfg.k, tau=cfg.tau)

    budget = cfg.round_budget
    if budget is None:
        budget = algorithm.planned_rounds()
    if budget is None:
        budget = default_round_budget(cfg, Fraction(total, 1 << exp))
    if continuous:
        total = Dyadic(total, exp)

    smoothing = (
        SmoothingParams(k=cfg.k, max_rejections=cfg.max_rejections) if cfg.k > 0 else None
    )

    enabled = cfg.checks
    # Whether kept verdicts must have been taken on this round's graph too.
    reads_graph = not GRAPH_CHECKS.isdisjoint(enabled)
    line_policy = adversary if isinstance(adversary, SortingLinePolicy) else None
    initial_prefix = None
    if CHECK_PREFIX_MONOTONE in enabled:
        if line_policy is None:
            raise EngineError("prefixMonotone needs the sortingLine adversary")
        initial_prefix = tuple(prefix_sums(line_policy.order, loads))

    trace_stride = cfg.trace_stride if trace_writer is not None else None

    failure_reports: list[InvariantReport] = []
    shared_checks: Optional[dict] = None
    invariant_failures = 0

    (tau_num,), tau_exp = to_scaled([cfg.tau])  # refuses a tau that is not dyadic
    gap = state_gap(state)
    min_gap, min_exp = gap, exp
    # Cross-shifted comparisons (see loads.py): gap / 2**exp <= tau.
    converged_at: Optional[int] = 0 if gap << tau_exp <= tau_num << exp else None

    if trace_writer is not None:
        # Numerators with their exponents; the writer renders them.
        round_row = trace_writer.round_row

        def write_row(index, phi, row_gap, row_exp, converged):
            round_row(
                round_index=index, phi=phi, max_gap=row_gap, exp=row_exp, d_r=0,
                connections=0, converged=converged,
            )

        write_row(0, state_potential(state), gap, exp, converged_at is not None)

    rounds = 0
    last_emitted = 0
    last_matching: list = []
    aborted: Optional[str] = None

    next_graph, play_round = adversary.next_graph, algorithm.play_round
    consume_idle_rounds = algorithm.consume_idle_rounds

    while rounds < budget and (converged_at is None or not cfg.stop_on_converge):
        # A finished algorithm coasts through the rest of its budget here.
        skipped = consume_idle_rounds(loads, budget - rounds)
        if skipped:
            rounds += skipped
            continue
        rounds += 1

        base_graph = next_graph(state, last_matching)
        if base_graph.n != n:
            raise EngineError("adversary changed the node count")
        # Every round; a random connected graph answers from its tree's flag.
        # Also the premise of the flooding lemma that gap reduction reads its
        # thresholds by (algorithms/gapreduce.py).
        if not is_connected(base_graph):
            raise EngineError("adversary produced a disconnected graph")

        if smoothing is not None:
            try:
                graph = k_smooth(base_graph, smoothing, rng_smoothing)
            except RejectionBudgetExceeded as exc:
                aborted = str(exc)
                rounds -= 1
                break
        else:
            graph = base_graph

        outcome = play_round(graph, loads)
        after, after_exp = outcome.new_loads, exp + outcome.shift
        try:
            if after is loads and after_exp == exp:
                # No load moved: keep the record and what was derived from it.
                committed = state
            else:
                if outcome.shift:
                    after, after_exp = renormalise(after, after_exp)
                committed = LoadState(cfg.mode, after, after_exp)
                gap = state_gap(committed)
            d_r = outcome.d_r
            if d_r is None:
                # Derived once per record: a record handed back again keeps it.
                d_r = outcome.d_r = twice_shifted_load(outcome.matching)

            checks = None
            if enabled and rounds % cfg.check_stride == 0:
                order = line_policy.order if line_policy is not None else None
                kept = outcome.verdicts
                if (
                    kept is not None
                    and kept[0] is state
                    and (kept[1] is graph or not reads_graph)
                    and kept[2] is order
                ):
                    # A record handed back on the very inputs it was judged on.
                    _, _, _, checks, witnesses, ok = kept
                else:
                    report = check_round(
                        state,
                        committed,
                        RoundTrace(rounds, graph, outcome.matching, d_r),
                        algorithm_kind=algorithm.kind,
                        enabled=enabled,
                        line_order=order,
                        initial_prefix=initial_prefix,
                    )
                    checks, witnesses, ok = report.checks, report.witnesses, report.ok
                    if committed is state:
                        # Records judged alike share one verdict dict, so
                        # their trace rows can share text (see io.py).
                        if checks == shared_checks:
                            checks = shared_checks
                        else:
                            shared_checks = checks
                        outcome.verdicts = state, graph, order, checks, witnesses, ok
                if not ok:
                    # Only a failing round gets a report, of its own index.
                    report = InvariantReport(rounds, checks, witnesses)
                    invariant_failures += len(report.failed())
                    if len(failure_reports) < MAX_FAILURE_REPORTS:
                        failure_reports.append(report)

            within_tau = gap << tau_exp <= tau_num << after_exp
            if trace_stride is not None and rounds % trace_stride == 0:
                round_row(
                    round_index=rounds, phi=state_potential(committed), max_gap=gap,
                    exp=after_exp, d_r=d_r, d_r_exp=exp + 1,
                    connections=len(outcome.matching), converged=within_tau, checks=checks,
                )
                last_emitted = rounds
        except TypeError:
            # Integer numerators never fail these shifts (nor the
            # conservation kernel's), so the guard costs a sound round
            # nothing: only a failing round is searched for its bad load.
            _check_integer_loads(after, f"round {rounds}")
            raise
        state, loads, exp = committed, committed.loads, committed.exp
        last_matching = outcome.matching
        if gap << min_exp < min_gap << exp:
            min_gap, min_exp = gap, exp
        if converged_at is None and within_tau:
            converged_at = rounds

    # A bad load between the extremes fails no shift; search the final vector.
    _check_integer_loads(loads, f"by round {rounds}")

    # The sorting-line guarantee also covers the order the adversary would
    # present next (it reflects the final round's exchanges).
    if (
        CHECK_PREFIX_MONOTONE in enabled
        and aborted is None
        and line_policy is not None
        and rounds > 0
    ):
        next_graph(state, last_matching)
        witness = prefix_growth(line_policy.order, loads, exp, initial_prefix)
        if witness is not None:
            report = InvariantReport(rounds + 1)
            report.checks[CHECK_PREFIX_MONOTONE] = False
            report.witnesses[CHECK_PREFIX_MONOTONE] = witness
            invariant_failures += 1
            if len(failure_reports) < MAX_FAILURE_REPORTS:
                failure_reports.append(report)

    if trace_writer is not None and last_emitted != rounds:
        write_row(rounds, state_potential(state), gap, exp, converged_at is not None)

    return TrialResult(
        seed=seed,
        rounds_played=rounds,
        budget=budget,
        converged_at=converged_at,
        final_loads=to_dyadics(loads, exp) if continuous else list(loads),
        final_gap=Dyadic(gap, exp) if continuous else gap,
        min_max_gap=Dyadic(min_gap, min_exp) if continuous else min_gap,
        total=total,
        invariant_failures=invariant_failures,
        failure_reports=failure_reports,
        aborted=aborted,
    )


# ----------------------------------------------------------------------
# continuous loads balanced by the integral machinery
# ----------------------------------------------------------------------


def _run_continuous_via_integral(cfg: ScenarioConfig, seed: int, trace_writer) -> TrialResult:
    """Decompose into multiples of tau/2, balance the integer parts to
    spread one, recombine.  The frozen remainders are each below the unit,
    so integral convergence forces the real spread under tau.  The loads
    stay numerators over the decomposition's exponent until the result."""
    rng_loads = derive_stream(seed, "loads")
    loads = build_initial_loads(cfg, rng_loads)
    quotients, remainders, exp, step = decompose_by_unit(loads, cfg.tau / 2)
    total = step * sum(quotients) + sum(remainders)

    sub_cfg = replace(
        cfg,
        mode=MODE_INTEGRAL,
        initial_loads=("explicit", tuple(quotients)),
        tau=Fraction(1),
        algorithm=("smoothedBalance", cfg.algorithm[1]),
        trials=1,
    )
    sub = run_trial(sub_cfg, seed=seed, trace_writer=trace_writer)

    final = recombine_by_unit(sub.final_loads, remainders, step)
    if total_load(final) != total:
        raise EngineError("recombination broke conservation")

    gap = max_gap(final)
    # Cross-shifted as in run_trial: gap / 2**exp <= tau.
    converged = gap * cfg.tau.denominator <= cfg.tau.numerator << exp
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
        final_loads=to_dyadics(final, exp),
        final_gap=Dyadic(gap, exp),
        min_max_gap=Dyadic(gap, exp),
        total=Dyadic(total, exp),
        invariant_failures=sub.invariant_failures,
        failure_reports=sub.failure_reports,
        aborted=sub.aborted,
    )


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


def _experiment_worker(job) -> TrialResult:
    cfg, seed = job
    return run_trial(cfg, seed=seed)


def run_experiment(
    cfg: ScenarioConfig,
    seeds: Optional[list[int]] = None,
    threads: Optional[int] = None,
    trace_writer_factory=None,
) -> ExperimentResult:
    """Run `cfg.trials` independent trials on consecutive seeds.

    With threads > 1 (None means 1) trials run in separate processes;
    per-trial trace writers force the serial path since file handles do
    not cross process boundaries.
    """
    if seeds is None:
        seeds = [cfg.seed + i for i in range(cfg.trials)]

    if threads is not None and threads > 1 and len(seeds) > 1 and trace_writer_factory is None:
        # Imported here: it loads multiprocessing, which serial runs never use.
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(cfg, s) for s in seeds]
        with ProcessPoolExecutor(max_workers=min(threads, len(seeds))) as pool:
            results = list(pool.map(_experiment_worker, jobs))
    else:
        results = []
        for s in seeds:
            writer = trace_writer_factory(s) if trace_writer_factory is not None else None
            try:
                results.append(run_trial(cfg, seed=s, trace_writer=writer))
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
