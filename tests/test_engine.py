"""The round loop: determinism, stream isolation, budgets, trace output."""

import csv
import io
import json
from dataclasses import replace
from fractions import Fraction
from random import Random
from unittest import mock

import pytest

from dynbal import engine, metrics
from dynbal import io as trace_io
from dynbal.adversaries import AdversaryPolicy, SortingLinePolicy, make_adversary
from dynbal.algorithms import ALGORITHMS, make_algorithm
from dynbal.algorithms.base import BalancingAlgorithm
from dynbal.algorithms.drivers import decompose_by_unit, recombine_by_unit
from dynbal.config import config_from_dict
from dynbal.dyadic import Dyadic
from dynbal.engine import (
    EngineError,
    derive_stream,
    run_experiment,
    run_trial,
    wilson_interval,
)
from dynbal.graphs import Graph, is_connected, line_of, path_graph
from dynbal.io import TraceCsvWriter
from dynbal.loads import LoadState, total_load
from dynbal.metrics import KIND_MATCHING, check_round
from dynbal.records import RoundOutcome, RoundTrace
from test_golden import golden_configs


def scenario(**overrides) -> dict:
    base = {
        "n": 2,
        "initialLoads": [4, 0],
        "mode": "continuous",
        "tau": "0",
        "k": "0",
        "adversary": "static",
        "algorithm": "deterministic",
        "roundBudget": 10,
    }
    base.update(overrides)
    return base


# ======================================================================
# random streams
# ======================================================================


def test_derived_streams_are_reproducible_and_distinct():
    a1 = [derive_stream(7, "adversary").random() for _ in range(3)]
    a2 = [derive_stream(7, "adversary").random() for _ in range(3)]
    b = [derive_stream(7, "algorithm").random() for _ in range(3)]
    c = [derive_stream(8, "adversary").random() for _ in range(3)]
    assert a1 == a2
    assert a1 != b
    assert a1 != c


# ======================================================================
# budgets
# ======================================================================


@pytest.mark.parametrize("name, budget", [("deterministic", 480), ("randMaxNeighbor", 960)])
def test_planned_budget_reads_tau_in_the_loads_scale(name, budget):
    # Loads 1/2, 0, 0, 0 are numerators 1, 0, 0, 0 over exp 1, and tau 1/4
    # is 1/2 in that scale: n T / tau = 8 either way.  A tau handed over
    # unscaled would read 16 and double the budget.
    spec = scenario(n=4, initialLoads=["0.5", "0", "0", "0"], tau="0.25", algorithm=name)
    del spec["roundBudget"]
    assert run_trial(config_from_dict(spec)).budget == budget


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_algorithm_plans_an_int_budget(name):
    alg = make_algorithm(name, **({"psi": 4} if name == "gaplessGapReduce" else {}))
    alg.start((8, 0, 0, 0), alg.modes[0], Random(0), k=Fraction(1), tau=Fraction(1))
    assert type(alg.planned_rounds()) is int


# ======================================================================
# single trials
# ======================================================================


def test_two_node_trial_converges_in_one_round():
    result = run_trial(config_from_dict(scenario()))
    assert result.converged_at == 1
    assert result.rounds_played == 1
    assert result.final_loads == [Dyadic(2), Dyadic(2)]
    assert result.final_gap == 0
    assert result.total == 4
    assert result.invariant_failures == 0
    assert result.aborted is None


def test_trial_refuses_a_tau_that_is_not_dyadic():
    # Configs refuse such a tau; one set on a built config has no exponent.
    cfg = replace(config_from_dict(scenario()), tau=Fraction(1, 3))
    with pytest.raises(ValueError, match="1/3 has no finite binary expansion"):
        run_trial(cfg)


def test_already_converged_trial_plays_no_rounds():
    result = run_trial(config_from_dict(scenario(initialLoads=[3, 3])))
    assert result.converged_at == 0
    assert result.rounds_played == 0
    assert result.final_loads == [Dyadic(3), Dyadic(3)]


def test_budget_exhaustion_reports_no_convergence():
    # A 3-node star with tau 0 cannot ever finish: the two leaves keep
    # mirroring each other one half-step away from the hub.
    cfg = config_from_dict(
        scenario(
            n=3,
            initialLoads=[8, 0, 0],
            adversary={"name": "static", "graph": "star"},
            roundBudget=12,
        )
    )
    result = run_trial(cfg)
    assert result.converged_at is None
    assert result.rounds_played == 12
    assert total_load(result.final_loads) == 8


def test_stop_on_converge_false_runs_out_the_budget():
    cfg = config_from_dict(scenario(stopOnConverge=False))
    result = run_trial(cfg)
    assert result.converged_at == 1
    assert result.rounds_played == 10


def test_finished_algorithm_coasts_to_the_full_budget():
    # One gap-reduction call ends long before round 500, and a total of 65
    # over 4 nodes can never reach gap 0 - so the loads freeze and the
    # remaining rounds are accounted as no-ops up to the budget.
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads=[0, 0, 0, 65],
            mode="integral",
            k="1",
            adversary="resortDescending",
            algorithm="gapReduce",
            roundBudget=500,
            seed=11,
        )
    )
    result = run_trial(cfg)
    assert result.converged_at is None
    assert result.rounds_played == result.budget == 500
    assert total_load(result.final_loads) == 65


def spy_idle_calls(monkeypatch) -> dict:
    """Make the trial's algorithm count its rounds and, if it defines an
    idle call, record what each returned; asking it `is_done` fails the
    test.  An algorithm that defines no idle call is given none."""
    seen = {"plays": 0, "idle": []}

    def algorithm(name, **params):
        alg = make_algorithm(name, **params)
        play, idle = alg.play_round, getattr(alg, "consume_idle_rounds", None)

        def play_round(graph, loads):
            seen["plays"] += 1
            return play(graph, loads)

        def consume_idle_rounds(loads, budget_left):
            seen["idle"].append(idle(loads, budget_left))
            return seen["idle"][-1]

        def is_done():
            raise AssertionError("the engine asked is_done")

        alg.play_round, alg.is_done = play_round, is_done
        if idle is not None:
            alg.consume_idle_rounds = consume_idle_rounds
        return alg

    monkeypatch.setattr(engine, "make_algorithm", algorithm)
    return seen


@pytest.mark.parametrize("algorithm", ["gapReduce", "smoothedBalance"])
def test_each_loop_makes_one_idle_call(monkeypatch, algorithm):
    # The gap-reduction call finishes long before round 500 and coasts to
    # it; the chain of calls converges.  Either way the engine asks one idle
    # call per loop: each loop either skips what that call returned or
    # plays one round.
    seen = spy_idle_calls(monkeypatch)
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads=[0, 0, 0, 65],
            mode="integral",
            tau="1",
            k="1",
            adversary="resortDescending",
            algorithm=algorithm,
            roundBudget=500,
            seed=11,
        )
    )
    result = run_trial(cfg)
    idle, plays = seen["idle"], seen["plays"]
    assert plays > 0 and any(idle)
    assert len(idle) == plays + sum(1 for skipped in idle if skipped)
    assert sum(idle) + plays == result.rounds_played
    if algorithm == "gapReduce":
        assert result.rounds_played == 500 and idle[-1] > 0


@pytest.mark.parametrize(
    "algorithm, mode", [("deterministic", "continuous"), ("randMaxNeighbor", "integral")]
)
def test_an_algorithm_that_cannot_idle_gets_no_idle_call(monkeypatch, algorithm, mode):
    # Neither defines an idle call, so the engine has none to ask and plays
    # every round of the budget.
    assert not hasattr(make_algorithm(algorithm), "consume_idle_rounds")
    seen = spy_idle_calls(monkeypatch)
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads="lineRamp",
            mode=mode,
            k="1",
            adversary="randomConnected",
            algorithm=algorithm,
            roundBudget=40,
            stopOnConverge=False,
        )
    )
    result = run_trial(cfg)
    assert seen["idle"] == []
    assert seen["plays"] == result.rounds_played == 40


class CountsIdleCalls(BalancingAlgorithm):
    """Moves nothing; its class defines an idle call that never skips and
    counts how often it is asked."""

    name = "randMaxNeighbor"
    modes = ("integral",)

    def start(self, loads, mode, rng, *, k, tau):
        super().start(loads, mode, rng, k=k, tau=tau)
        self.idle_calls = 0

    def play_round(self, graph, loads):
        return RoundOutcome(new_loads=loads)

    def consume_idle_rounds(self, loads, budget_left):
        self.idle_calls += 1
        return 0


@pytest.mark.parametrize("where", ["class", "instance"])
def test_an_idle_call_is_asked_once_per_loop_wherever_it_is_defined(monkeypatch, where):
    # The engine looks the idle call up on the instance, so one the class
    # defines and one set on the instance are asked alike.
    if where == "class":
        alg = CountsIdleCalls()
    else:
        alg = make_algorithm("randMaxNeighbor")
        alg.idle_calls = 0

        def consume_idle_rounds(loads, budget_left):
            alg.idle_calls += 1
            return 0

        alg.consume_idle_rounds = consume_idle_rounds
    monkeypatch.setattr(engine, "make_algorithm", lambda name, **params: alg)
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads="lineRamp",
            mode="integral",
            algorithm="randMaxNeighbor",
            roundBudget=30,
            stopOnConverge=False,
        )
    )
    result = run_trial(cfg)
    assert alg.idle_calls == result.rounds_played == 30


def test_kept_rounds_keep_the_starting_bookkeeping():
    # Loads 1 and 2 start within tau 1, and a pair one unit apart never
    # moves: every round keeps the starting record, whose convergence,
    # minimum gap and trace verdict were settled before round 1.
    cfg = config_from_dict(
        scenario(
            initialLoads="lineRamp",
            mode="integral",
            tau="1",
            algorithm="randMaxNeighbor",
            roundBudget=20,
            stopOnConverge=False,
            traceLevel="full",
        )
    )
    result, rows = trace_rows(cfg)
    assert result.rounds_played == 20
    assert result.converged_at == 0
    assert result.final_loads == [1, 2]
    assert result.min_max_gap == result.final_gap == 1
    assert [int(row[0]) for row in rows] == list(range(21))
    assert {row[5] for row in rows} == {"true"}


def trace_rows(cfg, seed=None):
    """Run a trial with a CSV writer; return the result and the data rows."""
    buf = io.StringIO()
    result = run_trial(cfg, seed=seed, trace_writer=TraceCsvWriter(buf, cfg.checks))
    return result, list(csv.reader(io.StringIO(buf.getvalue())))[1:]


def test_full_traces_list_every_round():
    # The deterministic algorithm never idles, so a full trace has a row
    # for every round from 0 to the last.
    cfg = config_from_dict(
        scenario(
            n=3,
            initialLoads=[8, 0, 0],
            adversary={"name": "static", "graph": "star"},
            roundBudget=12,
            traceLevel="full",
            checks=["conservation"],
        )
    )
    result, rows = trace_rows(cfg)
    assert result.rounds_played == 12
    assert [int(row[0]) for row in rows] == list(range(13))
    assert rows[1][4] == "2"  # the hub sends to one leaf and answers the other


def test_full_trace_shows_fast_forwarded_span_as_a_jump():
    # The gap-reduction call runs out of light or heavy nodes long before
    # round 500.  The idle rest is skipped, not simulated, and the trace
    # jumps from the last simulated round to the closing row with the
    # loads unchanged.
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads=[0, 0, 0, 65],
            mode="integral",
            k="1",
            adversary="resortDescending",
            algorithm="gapReduce",
            roundBudget=500,
            seed=11,
            traceLevel="full",
        )
    )
    result, rows = trace_rows(cfg)
    rounds = [int(row[0]) for row in rows]
    assert rounds[0] == 0 and rounds[-1] == result.rounds_played == 500
    assert rounds[:-1] == list(range(len(rounds) - 1))
    assert rounds[-2] < 499  # a real jump
    assert rows[-1][1:3] == rows[-2][1:3]  # phi and max_gap unchanged
    assert rows[-1][3:5] == ["0", "0"]  # nothing moved


def test_trial_is_deterministic_per_seed():
    spec = scenario(
        n=5,
        mode="integral",
        initialLoads="lineRamp",
        tau="1",
        k="1",
        adversary="randomConnected",
        algorithm="randMaxNeighbor",
        roundBudget=60,
        checks=["conservation", "matchingBudget", "integrality"],
        traceLevel="full",
    )
    first, first_rows = trace_rows(config_from_dict(spec), seed=11)
    second, second_rows = trace_rows(config_from_dict(spec), seed=11)
    other, other_rows = trace_rows(config_from_dict(spec), seed=12)
    assert first.final_loads == second.final_loads
    assert first.converged_at == second.converged_at
    assert first_rows == second_rows
    assert first.invariant_failures == second.invariant_failures == 0
    assert first_rows != other_rows


def test_fast_forward_preserves_convergence_and_conservation():
    # Idle rounds are fast-forwarded at every trace level and draw no
    # randomness, so a full trace replays the summary run exactly.
    spec = scenario(
        n=6,
        mode="integral",
        initialLoads=[30, 0, 0, 6, 6, 6],
        tau="1",
        k="1",
        adversary={"name": "static", "graph": "cycle"},
        algorithm="smoothedBalance",
        checks=["conservation", "matchingBudget", "integrality"],
        traceLevel="summary",
    )
    del spec["roundBudget"]
    summary = run_trial(config_from_dict(spec), seed=3)
    spec["traceLevel"] = "full"
    full = run_trial(config_from_dict(spec), seed=3)
    assert summary.converged_at is not None
    assert summary.rounds_played <= summary.budget
    assert total_load(summary.final_loads) == 48
    assert summary.invariant_failures == 0
    assert summary == full


def test_sampler_abort_is_reported_not_raised():
    spec = scenario(
        n=6,
        mode="integral",
        initialLoads="lineRamp",
        tau="1",
        k="5",
        adversary="static",
        algorithm="randMaxNeighbor",
        roundBudget=50,
        maxRejections=1,
    )
    aborted = None
    for seed in range(40):
        result = run_trial(config_from_dict(spec), seed=seed)
        if result.aborted is not None:
            aborted = result
            break
    assert aborted is not None, "no seed tripped the one-draw rejection budget"
    assert "rejections" in aborted.aborted
    assert total_load(aborted.final_loads) == total_load([1, 2, 3, 4, 5, 6])


class DisconnectsOnRoundThree(AdversaryPolicy):
    """A path on rounds 1 and 2, then a graph with two components: a new
    object every round, or one object the policy keeps returning."""

    name = "disconnectsOnRoundThree"

    def __init__(self, fresh: bool):
        self.fresh = fresh
        self.split = Graph(4, [(0, 1), (2, 3)])

    def bind(self, n, rng):
        super().bind(n, rng)
        self.path = path_graph(n)
        self.rounds = []

    def next_graph(self, state, matching):
        # Called once per round, from round 1.
        self.rounds.append(len(self.rounds) + 1)
        if self.rounds[-1] < 3:
            return self.path
        return Graph(4, [(0, 1), (2, 3)]) if self.fresh else self.split


def spy_validations(monkeypatch) -> list:
    """The graphs the engine's connectivity check is called on, in order."""
    validated = []

    def spy(graph):
        validated.append(graph)
        return is_connected(graph)

    monkeypatch.setattr(engine, "is_connected", spy)
    return validated


@pytest.mark.parametrize("fresh", [True, False])
def test_disconnected_adversary_graph_is_rejected(monkeypatch, fresh):
    policy = DisconnectsOnRoundThree(fresh)
    assert not is_connected(policy.split)  # its connectivity is cached before any trial
    monkeypatch.setattr(engine, "make_adversary", lambda name, **params: policy)
    validated = spy_validations(monkeypatch)
    cfg = config_from_dict(scenario(n=4, initialLoads=[8, 0, 0, 0], roundBudget=10))
    # The second trial sees the kept object again, and validates it afresh.
    for _ in range(2):
        validated.clear()
        with pytest.raises(EngineError, match="adversary produced a disconnected graph"):
            run_trial(cfg)
        assert policy.rounds == [1, 2, 3]
        # The path handed out twice is validated once.
        assert validated[0] is policy.path and len(validated) == 2
        assert (validated[1] is policy.split) is not fresh


def test_a_graph_object_handed_back_is_validated_once(monkeypatch):
    # The line ascends from the start, so the sorting line hands back one
    # graph object every round.
    validated = spy_validations(monkeypatch)
    cfg = config_from_dict(
        scenario(
            n=6,
            initialLoads="lineRamp",
            mode="integral",
            adversary="sortingLine",
            algorithm="randMaxNeighbor",
            roundBudget=300,
            stopOnConverge=False,
        )
    )
    result = run_trial(cfg)
    assert result.rounds_played == 300
    assert len(validated) == 1


class ShrinksOnRoundTwo(AdversaryPolicy):
    """A path on all nodes in round 1, then a path on one node fewer."""

    name = "shrinksOnRoundTwo"

    def bind(self, n, rng):
        super().bind(n, rng)
        self.rounds = []

    def next_graph(self, state, matching):
        self.rounds.append(len(self.rounds) + 1)
        return path_graph(self.n if self.rounds[-1] < 2 else self.n - 1)


def test_adversary_that_changes_the_node_count_is_rejected(monkeypatch):
    policy = ShrinksOnRoundTwo()
    monkeypatch.setattr(engine, "make_adversary", lambda name, **params: policy)
    cfg = config_from_dict(scenario(n=4, initialLoads=[8, 0, 0, 0], roundBudget=10))
    with pytest.raises(EngineError, match="adversary changed the node count"):
        run_trial(cfg)
    assert policy.rounds == [1, 2]


class CreatesLoadInRoundThree(BalancingAlgorithm):
    """Moves nothing, except that round 3 adds one unit to node 0."""

    name = "randMaxNeighbor"
    modes = ("integral",)

    def start(self, loads, mode, rng, *, k, tau):
        super().start(loads, mode, rng, k=k, tau=tau)
        self.rounds = 0

    def play_round(self, graph, loads):
        self.rounds += 1
        new_loads = list(loads)
        if self.rounds == 3:
            new_loads[0] += 1
        return RoundOutcome(new_loads=new_loads)


@pytest.mark.parametrize("stride, failing", [(1, [3]), (3, [3]), (2, [])])
def test_conservation_fails_only_in_the_round_that_creates_load(monkeypatch, stride, failing):
    # Each checked round is held to its own starting total, not the initial
    # one: the rounds after the faulty one conserve their load.  With
    # stride 2 the faulty round goes unchecked and no later round is blamed.
    monkeypatch.setattr(engine, "make_algorithm", lambda name, **params: CreatesLoadInRoundThree())
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads="lineRamp",
            mode="integral",
            tau="0",
            algorithm="randMaxNeighbor",
            roundBudget=8,
            checks=["conservation", "integrality"],
            checkStride=stride,
        )
    )
    result = run_trial(cfg)
    assert result.rounds_played == 8
    assert result.final_loads == [2, 2, 3, 4]
    assert result.invariant_failures == len(failing)
    assert [report.round_index for report in result.failure_reports] == failing
    for report in result.failure_reports:
        assert report.failed() == ["conservation"]
        assert report.witnesses["conservation"] == {"before": "10", "after": "11"}


class HandsBackRoundOnesRecord(BalancingAlgorithm):
    """Round 1 moves nothing and keeps its record, round 2 adds one unit to
    node 0, and round 3 hands round 1's record back on round 2's tuple."""

    name = "randMaxNeighbor"
    modes = ("integral",)

    def start(self, loads, mode, rng, *, k, tau):
        super().start(loads, mode, rng, k=k, tau=tau)
        self.rounds = 0

    def play_round(self, graph, loads):
        self.rounds += 1
        if self.rounds == 1:
            self.first = RoundOutcome(new_loads=loads)
            return self.first
        if self.rounds == 2:
            return RoundOutcome(new_loads=(loads[0] + 1,) + loads[1:])
        return self.first


def test_kept_verdicts_hold_only_on_the_committed_record_they_were_judged_on(monkeypatch):
    # Round 1's record carries round 1's verdicts.  Handed back in round 3
    # from another committed record, it is judged afresh, so round 3's
    # conservation failure (11 back to 10) is reported.
    monkeypatch.setattr(engine, "make_algorithm", lambda name, **params: HandsBackRoundOnesRecord())
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads="lineRamp",
            mode="integral",
            tau="0",
            algorithm="randMaxNeighbor",
            roundBudget=3,
            checks=["conservation"],
        )
    )
    result = run_trial(cfg)
    assert result.final_loads == [1, 2, 3, 4]
    assert [report.round_index for report in result.failure_reports] == [2, 3]
    assert [report.witnesses["conservation"] for report in result.failure_reports] == [
        {"before": "10", "after": "11"},
        {"before": "11", "after": "10"},
    ]


class CommitsNegativeLoadInRoundTwo(BalancingAlgorithm):
    """Round 2 moves two units off node 0, leaving it at -1; every other
    round hands the committed tuple back, so the bad vector stays committed."""

    name = "randMaxNeighbor"
    modes = ("integral",)

    def start(self, loads, mode, rng, *, k, tau):
        super().start(loads, mode, rng, k=k, tau=tau)
        self.rounds = 0

    def play_round(self, graph, loads):
        self.rounds += 1
        if self.rounds == 2:
            return RoundOutcome(new_loads=(loads[0] - 2, loads[1] + 2) + loads[2:])
        return RoundOutcome(new_loads=loads)


@pytest.mark.parametrize("stride, failing", [(1, [2, 3, 4, 5, 6, 7, 8]), (3, [3, 6])])
def test_committed_negative_load_fails_integrality_every_checked_round(
    monkeypatch, stride, failing
):
    monkeypatch.setattr(
        engine, "make_algorithm", lambda name, **params: CommitsNegativeLoadInRoundTwo()
    )
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads="lineRamp",
            mode="integral",
            tau="0",
            algorithm="randMaxNeighbor",
            roundBudget=8,
            checks=["conservation", "integrality"],
            checkStride=stride,
        )
    )
    result = run_trial(cfg)
    assert result.final_loads == [-1, 4, 3, 4]
    assert [report.round_index for report in result.failure_reports] == failing
    for report in result.failure_reports:
        assert report.failed() == ["integrality"]
        assert report.witnesses["integrality"] == {"node": 0, "load": "-1"}


class MovesHalfAUnitInRoundTwo(BalancingAlgorithm):
    """Round 2 moves half a unit from node `giver` to the next node,
    committing load numerators that are not integers; every other round
    moves nothing."""

    name = "randMaxNeighbor"
    modes = ("integral", "continuous")

    def __init__(self, giver=0):
        self.giver = giver

    def start(self, loads, mode, rng, *, k, tau):
        super().start(loads, mode, rng, k=k, tau=tau)
        self.rounds = 0

    def play_round(self, graph, loads):
        self.rounds += 1
        if self.rounds == 2:
            new_loads = list(loads)
            new_loads[self.giver] -= Fraction(1, 2)
            new_loads[self.giver + 1] += Fraction(1, 2)
            return RoundOutcome(new_loads=tuple(new_loads))
        return RoundOutcome(new_loads=loads)


@pytest.mark.parametrize("mode", ["integral", "continuous"])
@pytest.mark.parametrize("checks", [["conservation", "integrality"], []])
def test_committed_non_integer_load_is_an_engine_error(monkeypatch, mode, checks):
    monkeypatch.setattr(
        engine, "make_algorithm", lambda name, **params: MovesHalfAUnitInRoundTwo()
    )
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads="lineRamp",
            mode=mode,
            tau="0",
            algorithm="randMaxNeighbor",
            roundBudget=8,
            checks=checks,
        )
    )
    with pytest.raises(EngineError, match=r"^round 2: .* load Fraction\(1, 2\) at node 0$"):
        run_trial(cfg)


@pytest.mark.parametrize("mode", ["integral", "continuous"])
def test_non_integer_load_between_the_extremes_is_an_engine_error(monkeypatch, mode):
    # Loads 1, 3/2, 7/2, 4 keep integer extremes, so no round's shift fails
    # on them; with no checks the final vector is what finds the bad load.
    monkeypatch.setattr(
        engine, "make_algorithm", lambda name, **params: MovesHalfAUnitInRoundTwo(giver=1)
    )
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads="lineRamp",
            mode=mode,
            tau="0",
            algorithm="randMaxNeighbor",
            roundBudget=8,
            checks=[],
        )
    )
    with pytest.raises(EngineError, match=r"^by round 8: .* load Fraction\(3, 2\) at node 1$"):
        run_trial(cfg)


class HalvesEveryLoadInRoundTwo(BalancingAlgorithm):
    """Round 2 hands back the very tuple it was given, one bit finer, so
    every load halves; the other rounds move nothing."""

    name = "randMaxNeighbor"
    modes = ("integral",)

    def start(self, loads, mode, rng, *, k, tau):
        super().start(loads, mode, rng, k=k, tau=tau)
        self.rounds = 0

    def play_round(self, graph, loads):
        self.rounds += 1
        return RoundOutcome(new_loads=loads, shift=1 if self.rounds == 2 else 0)


def test_same_tuple_at_a_finer_exponent_is_a_new_vector(monkeypatch):
    # Only the tuple and its exponent together name a committed vector: the
    # halving round loses load, and from then on the loads sit off exponent 0.
    monkeypatch.setattr(
        engine, "make_algorithm", lambda name, **params: HalvesEveryLoadInRoundTwo()
    )
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads="lineRamp",
            mode="integral",
            tau="0",
            algorithm="randMaxNeighbor",
            roundBudget=5,
            checks=["conservation", "integrality"],
        )
    )
    result = run_trial(cfg)
    assert [(r.round_index, r.failed()) for r in result.failure_reports] == [
        (2, ["conservation", "integrality"]),
        (3, ["integrality"]),
        (4, ["integrality"]),
        (5, ["integrality"]),
    ]
    for report in result.failure_reports:
        assert report.witnesses["integrality"] == {"exp": 1}


def count_calls(monkeypatch, calls, name, counted=lambda loads: True):
    """Count the calls of `name` that `counted` accepts, wherever the engine
    and the checks look it up."""
    for module in (engine, metrics):
        fn = getattr(module, name, None)
        if fn is None:
            continue

        def wrapper(loads, fn=fn):
            if counted(loads):
                calls[name] += 1
            return fn(loads)

        monkeypatch.setattr(module, name, wrapper)


def test_rounds_that_move_no_load_reuse_what_was_derived(monkeypatch):
    # On the sorting line over lineRamp every gap is one, so randMaxNeighbor's
    # pairs split into the loads they had: each round hands its tuple back,
    # and the trial sums its loads once and takes their spread at the start
    # only.
    calls = {"total_load": 0, "max_gap": 0}
    count_calls(monkeypatch, calls, "total_load")
    count_calls(monkeypatch, calls, "max_gap")
    cfg = config_from_dict(
        scenario(
            n=8,
            initialLoads="lineRamp",
            mode="integral",
            tau="1",
            adversary="sortingLine",
            algorithm="randMaxNeighbor",
            roundBudget=300,
            checks=["prefixMonotone", "conservation", "integrality", "matchingBudget"],
        )
    )
    result = run_trial(cfg)
    assert result.rounds_played == 300
    assert result.invariant_failures == 0
    assert result.final_loads == list(range(1, 9))
    assert calls == {"total_load": 1, "max_gap": 1}


def test_rounds_that_move_load_derive_once_per_committed_vector(monkeypatch):
    # Every round of the two-sided rule from a single source moves load, so
    # each round commits a new vector.  The trace row and potentialDrop read
    # the same potential of it, and the next round's checks read it again as
    # their before-state.  splitPotential takes the potential of the halves,
    # twice as many loads as a committed vector.  Totals are not kept: the
    # trial sums its initial loads once and conservation sums both records
    # of each of the 43 rounds.
    calls = {"total_load": 0, "potential": 0}
    count_calls(monkeypatch, calls, "total_load")
    count_calls(monkeypatch, calls, "potential", lambda loads: len(loads) == 8)
    cfg = config_from_dict(
        scenario(
            n=8,
            initialLoads={"name": "singleSource", "total": 64},
            adversary={"name": "static", "graph": "path"},
            tau="1",
            roundBudget=1000,
            checks=["conservation", "potentialDrop", "splitPotential"],
            traceLevel={"sampled": 1},
        )
    )
    result = run_trial(cfg, trace_writer=TraceCsvWriter(io.StringIO(), cfg.checks))
    assert result.converged
    assert result.invariant_failures == 0
    assert result.rounds_played == 43
    assert calls == {"total_load": 1 + 2 * 43, "potential": 44}


# ======================================================================
# round records handed back
# ======================================================================


class HandsBackOneBadMatching(BalancingAlgorithm):
    """Moves no load and hands back one record every round, whose matching
    uses node 1 twice."""

    name = "randMaxNeighbor"
    modes = ("integral",)

    def start(self, loads, mode, rng, *, k, tau):
        super().start(loads, mode, rng, k=k, tau=tau)
        self.record = RoundOutcome(new_loads=loads, matching=[(0, 1, 1), (1, 2, 1)])

    def play_round(self, graph, loads):
        return self.record


@pytest.mark.parametrize("stride", [1, 3])
def test_a_failing_record_handed_back_fails_every_checked_round(monkeypatch, stride):
    monkeypatch.setattr(engine, "make_algorithm", lambda name, **params: HandsBackOneBadMatching())
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads="lineRamp",
            mode="integral",
            tau="0",
            adversary={"name": "static", "graph": "path"},
            algorithm="randMaxNeighbor",
            roundBudget=9,
            checks=["conservation", "integrality", "matchingBudget"],
            checkStride=stride,
            traceLevel="full",
        )
    )
    result, rows = trace_rows(cfg)
    checked = list(range(stride, 10, stride))
    assert result.invariant_failures == len(checked)
    assert [report.round_index for report in result.failure_reports] == checked

    matching = [(0, 1, 1), (1, 2, 1)]
    state = LoadState("integral", (1, 2, 3, 4))
    expected = check_round(
        state,
        state,
        RoundTrace(1, path_graph(4), matching, metrics.twice_shifted_load(matching)),
        algorithm_kind=KIND_MATCHING,
        enabled=cfg.checks,
    )
    assert expected.witnesses == {"matchingBudget": {"node": 1}}
    for report in result.failure_reports:
        assert report.checks == expected.checks
        assert report.witnesses == expected.witnesses

    budget_column = 6 + list(cfg.checks).index("matchingBudget")
    assert [int(row[0]) for row in rows] == list(range(10))
    for row in rows:
        assert row[budget_column] == ("1" if int(row[0]) in checked else "")


class PairsNodeZeroTwice(HandsBackOneBadMatching):
    """Hands back one record every round, whose matching uses node 0 twice."""

    def start(self, loads, mode, rng, *, k, tau):
        super().start(loads, mode, rng, k=k, tau=tau)
        self.record = RoundOutcome(new_loads=loads, matching=[(0, 1, 1), (0, 2, 2)])


def test_failing_replays_count_alike_with_and_without_a_trace(monkeypatch):
    # The record is judged once; every later round replays its verdicts,
    # and builds a report of its own only because it failed.
    checked = count_checks(monkeypatch)
    monkeypatch.setattr(engine, "make_algorithm", lambda name, **params: PairsNodeZeroTwice())
    raw = scenario(
        n=4,
        initialLoads="lineRamp",
        mode="integral",
        tau="0",
        adversary={"name": "static", "graph": "path"},
        algorithm="randMaxNeighbor",
        roundBudget=40,
        checks=["conservation", "integrality", "matchingBudget"],
    )
    untraced = run_trial(config_from_dict(raw))
    cfg = config_from_dict({**raw, "traceLevel": "full"})
    traced, rows = trace_rows(cfg)
    assert checked == [1, 1]
    for result in (untraced, traced):
        assert result.invariant_failures == 40
        reports = result.failure_reports
        assert [report.round_index for report in reports] == list(range(1, 26))
        assert len({id(report) for report in reports}) == 25
        for report in reports:
            assert report.failed() == ["matchingBudget"]
            assert report.witnesses == {"matchingBudget": {"node": 0}}
    budget_column = 6 + list(cfg.checks).index("matchingBudget")
    assert [row[budget_column] for row in rows] == [""] + ["1"] * 40


def count_checks(monkeypatch) -> list:
    """The round index of every check_round call the engine makes."""
    checked = []
    check = engine.check_round

    def counting(before, after, trace, **kwargs):
        checked.append(trace.round_index)
        return check(before, after, trace, **kwargs)

    monkeypatch.setattr(engine, "check_round", counting)
    return checked


def test_a_passing_traced_trial_builds_no_report_of_its_own(monkeypatch):
    # Criterion 3's stuck n = 8 line with a full trace: a replayed row reads
    # its record's kept verdict dict, and a passing round needs no report,
    # so the only reports built are the ones check_round returns.
    checked = count_checks(monkeypatch)
    built = []
    real = metrics.InvariantReport

    def counted(where):
        def build(*args, **kwargs):
            built.append(where)
            return real(*args, **kwargs)

        return build

    monkeypatch.setattr(engine, "InvariantReport", counted("engine"))
    monkeypatch.setattr(metrics, "InvariantReport", counted("check_round"))
    cfg = config_from_dict(
        scenario(
            n=8,
            initialLoads="lineRamp",
            mode="integral",
            tau="1",
            adversary="sortingLine",
            algorithm="randMaxNeighbor",
            roundBudget=2000,
            traceLevel="full",
            checks=["prefixMonotone", "conservation", "integrality", "matchingBudget"],
        )
    )
    result, rows = trace_rows(cfg)
    assert result.rounds_played == 2000 and result.invariant_failures == 0
    assert 0 < len(checked) < 2000 // 2
    assert built == ["check_round"] * len(checked)
    assert len(rows) == 2001 and all(row[6:] == ["0"] * 4 for row in rows[1:])


@pytest.mark.parametrize("stride", [1, 3])
def test_a_record_handed_back_is_checked_once_per_key(monkeypatch, stride):
    # On the stuck n = 8 line the committed record, the graph object and the
    # order tuple never change, so a replayed record's verdicts are derived
    # the first time a checked round meets it and reused after that.
    checked = count_checks(monkeypatch)
    seen, keys, kept = [], set(), []
    made = {}

    def algorithm(name, **params):
        alg = make_algorithm(name, **params)
        play = alg.play_round

        def play_round(graph, loads):
            outcome = play(graph, loads)
            seen.append(outcome)
            if len(seen) % stride == 0:
                kept.append((outcome, graph, loads, made["adversary"].order))
                keys.add(tuple(map(id, kept[-1])))
            return outcome

        alg.play_round = play_round
        return alg

    def adversary(name, **params):
        made["adversary"] = make_adversary(name, **params)
        return made["adversary"]

    monkeypatch.setattr(engine, "make_algorithm", algorithm)
    monkeypatch.setattr(engine, "make_adversary", adversary)
    cfg = config_from_dict(
        scenario(
            n=8,
            initialLoads="lineRamp",
            mode="integral",
            tau="1",
            adversary="sortingLine",
            algorithm="randMaxNeighbor",
            roundBudget=600,
            checks=["prefixMonotone", "conservation", "integrality", "matchingBudget"],
            checkStride=stride,
        )
    )
    result = run_trial(cfg)
    assert result.rounds_played == 600 and result.invariant_failures == 0
    assert len({id(graph) for _, graph, _, _ in kept}) == 1
    assert len({id(loads) for _, _, loads, _ in kept}) == 1
    assert len({id(order) for _, _, _, order in kept}) == 1
    assert len(checked) == len(keys) == len({id(outcome) for outcome, *_ in kept})
    assert len(set(map(id, seen))) < len(seen) // 2  # most rounds are replays


class ReplacesItsGraphAndOrder(SortingLinePolicy):
    """The line of its order, presented as a new but equal graph object from
    round 3 and over a new but equal order tuple from round 5."""

    def bind(self, n, rng):
        super().bind(n, rng)
        self.round = 0  # called once per round, from round 1

    def next_graph(self, state, matching):
        self.round += 1
        if self.round == 3:
            self._graph = Graph(self.n, self._graph.edges)
        elif self.round == 5:
            self.order = tuple(list(self.order))
        return self._graph


class HandsBackOneRecordAroundAMove(BalancingAlgorithm):
    """Hands back one record over the initial loads every round, except
    that round 7 moves a unit from node 0 to the last node; round 8 then
    moves it back by committing the initial tuple in a new record."""

    name = "randMaxNeighbor"
    modes = ("integral",)

    def start(self, loads, mode, rng, *, k, tau):
        super().start(loads, mode, rng, k=k, tau=tau)
        self.rounds = 0
        self.record = RoundOutcome(new_loads=loads, matching=[(0, 1, 1)])

    def play_round(self, graph, loads):
        self.rounds += 1
        if self.rounds == 7:
            return RoundOutcome(new_loads=(loads[0] - 1,) + loads[1:-1] + (loads[-1] + 1,))
        return self.record


def test_a_record_handed_back_on_new_inputs_is_judged_afresh(monkeypatch):
    checked = count_checks(monkeypatch)
    monkeypatch.setattr(engine, "make_adversary", lambda name, **params: ReplacesItsGraphAndOrder())
    monkeypatch.setattr(
        engine, "make_algorithm", lambda name, **params: HandsBackOneRecordAroundAMove()
    )
    cases = [
        # No check reads the graph: a new graph (3) reuses the kept
        # verdicts; a new order (5), a round that moves load (7, 8) and the
        # first round back on the new committed record (9) do not.
        (
            {
                "algorithm": "randMaxNeighbor",
                "mode": "integral",
                "checks": ["prefixMonotone", "conservation", "integrality", "matchingBudget"],
            },
            [1, 5, 7, 8, 9],
            [],
        ),
        # coveringEdge reads it, so the new graph is judged afresh too; the
        # two rounds that move load leave an edge uncovered.
        (
            {
                "algorithm": "deterministic",
                "mode": "continuous",
                "checks": ["conservation", "coveringEdge"],
            },
            [1, 3, 5, 7, 8, 9],
            [7, 8],
        ),
    ]
    for params, judged, failed in cases:
        checked.clear()
        cfg = config_from_dict(
            scenario(
                n=4,
                initialLoads="lineRamp",
                tau="0",
                adversary="sortingLine",
                roundBudget=10,
                **params,
            )
        )
        result = run_trial(cfg)
        assert [report.round_index for report in result.failure_reports] == failed
        assert result.final_loads == [1, 2, 3, 4]
        assert checked == judged


class ReversesItsLineAtTheEnd(SortingLinePolicy):
    """The sorting line, until the call after the budget's last round: that
    call presents the line reversed, heaviest node first."""

    def __init__(self, budget):
        self.budget = budget
        self.calls = 0

    def next_graph(self, state, matching):
        self.calls += 1
        if self.calls <= self.budget:
            return super().next_graph(state, matching)
        self.order = self.order[::-1]
        return line_of(self.order)


def test_a_final_order_above_the_baseline_fails_prefix_monotone(monkeypatch, tmp_path, capsys):
    # Loads 1..4 never move on the line; the order presented after the last
    # round reads 4 on its first prefix, above the baseline's 1.
    from dynbal.cli import main

    monkeypatch.setattr(engine, "make_adversary", lambda name, **params: ReversesItsLineAtTheEnd(5))
    raw = scenario(
        n=4,
        initialLoads="lineRamp",
        mode="integral",
        tau="1",
        adversary="sortingLine",
        algorithm="randMaxNeighbor",
        roundBudget=5,
        checks=["prefixMonotone", "conservation"],
    )
    result = run_trial(config_from_dict(raw))
    assert result.rounds_played == 5 and result.final_loads == [1, 2, 3, 4]
    assert result.invariant_failures == 1
    (report,) = result.failure_reports
    assert report.round_index == result.rounds_played + 1
    assert report.checks == {"prefixMonotone": False}
    assert report.witnesses == {"prefixMonotone": {"prefix": 1, "now": "4", "baseline": "1"}}

    path = tmp_path / "line.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2
    out = capsys.readouterr().out
    assert "invariant_failures: 1\n" in out and "round 6: failed prefixMonotone\n" in out


# ======================================================================
# trace CSV
# ======================================================================


def test_trace_csv_layout():
    buf = io.StringIO()
    cfg = config_from_dict(
        scenario(initialLoads=[0, 4], traceLevel="full", checks=["conservation"])
    )
    run_trial(cfg, trace_writer=TraceCsvWriter(buf, cfg.checks))
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["round", "phi", "max_gap", "d_r", "connections", "converged", "conservation"]
    # round 0: phi=4, gap=4, nothing moved, check not yet run
    assert rows[1] == ["0", "4", "4", "0", "0", "false", ""]
    # round 1: converged, conservation passed
    assert rows[2] == ["1", "0", "0", "4", "2", "true", "0"]
    assert len(rows) == 3


def test_summary_trace_has_first_and_last_rows():
    buf = io.StringIO()
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads=[8, 0, 0, 0],
            adversary={"name": "static", "graph": "path"},
            tau="0.5",
            roundBudget=100,
        )
    )
    result = run_trial(cfg, trace_writer=TraceCsvWriter(buf))
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert len(rows) == 3  # header, round 0, final round
    assert rows[1][0] == "0"
    assert rows[2][0] == str(result.rounds_played)
    assert rows[2][5] == "true"


def test_sampled_trace_respects_stride():
    buf = io.StringIO()
    cfg = config_from_dict(
        scenario(
            n=4,
            initialLoads=[8, 0, 0, 0],
            adversary={"name": "static", "graph": "path"},
            tau="0.5",
            roundBudget=100,
            traceLevel={"sampled": 3},
        )
    )
    result = run_trial(cfg, trace_writer=TraceCsvWriter(buf))
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    indices = [int(r[0]) for r in rows[1:]]
    assert indices[0] == 0
    assert indices[-1] == result.rounds_played
    assert all(i % 3 == 0 or i == result.rounds_played for i in indices)


def sorting_line(**overrides):
    """Criterion 3's stuck n = 8 line: every round hands back a coin's record."""
    return config_from_dict(
        scenario(
            n=8,
            initialLoads="lineRamp",
            mode="integral",
            tau="1",
            adversary="sortingLine",
            algorithm="randMaxNeighbor",
            roundBudget=2000,
            traceLevel="full",
            checks=["prefixMonotone", "conservation", "integrality", "matchingBudget"],
            **overrides,
        )
    )


def test_a_kept_row_is_rendered_once(monkeypatch):
    # A replayed round writes the very row its record kept, and the writer
    # renders each row object's three amounts once.
    rendered = []
    render = trace_io.render_amount

    def counting(value, exp=0):
        rendered.append(value)
        return render(value, exp)

    monkeypatch.setattr(trace_io, "render_amount", counting)
    written = {}
    buf = io.StringIO()
    writer = TraceCsvWriter(buf, sorting_line().checks)
    round_row = writer.round_row

    def keeping(*, round_index, row):
        written[id(row)] = row  # held, so no id is reused
        round_row(round_index=round_index, row=row)

    writer.round_row = keeping
    result = run_trial(sorting_line(), trace_writer=writer)
    assert result.rounds_played == 2000 and result.invariant_failures == 0
    rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
    assert len(rows) == 2001
    # The initial row and one row per coin record at most (2**8 coins).
    assert len(written) <= 1 + 2**8
    assert len(rendered) == 3 * len(written)


def test_kept_rows_follow_the_round_verdicts():
    # With checkStride 2 a record is written on checked and unchecked
    # rounds alike: its row must carry that round's verdicts (or none),
    # never the verdicts of the round it was first written on.
    result, rows = trace_rows(sorting_line(checkStride=2))
    assert result.rounds_played == 2000 and result.invariant_failures == 0
    assert [row[6:] for row in rows[1:]] == [
        ["0"] * 4 if r % 2 == 0 else [""] * 4 for r in range(1, 2001)
    ]


class HandsBackRoundOnesRecordOneBitFiner(BalancingAlgorithm):
    """Round 1 moves nothing and keeps its record, round 2 commits loads one
    bit finer, and round 3 hands round 1's record back, whose numerators now
    read half their old values."""

    name = "deterministic"
    modes = ("continuous",)

    def start(self, loads, mode, rng, *, k, tau):
        super().start(loads, mode, rng, k=k, tau=tau)
        self.rounds = 0

    def play_round(self, graph, loads):
        self.rounds += 1
        if self.rounds == 1:
            self.first = RoundOutcome(new_loads=loads)
            return self.first
        if self.rounds == 2:
            return RoundOutcome(new_loads=(2 * loads[0] + 1,) + loads[1:], shift=1)
        return self.first


def test_a_kept_row_holds_only_on_its_committed_record(monkeypatch):
    # Round 3 hands back round 1's record, which kept round 1's row, on a
    # new committed record: its row is built afresh from that record.
    monkeypatch.setattr(
        engine, "make_algorithm", lambda name, **params: HandsBackRoundOnesRecordOneBitFiner()
    )
    cfg = config_from_dict(
        scenario(n=4, initialLoads="lineRamp", roundBudget=3, traceLevel="full")
    )
    result, rows = trace_rows(cfg)
    assert result.final_loads == [Dyadic(1, 1), Dyadic(1), Dyadic(3, 1), Dyadic(2)]
    assert [row[:3] for row in rows] == [
        ["0", "10", "3"], ["1", "10", "3"], ["2", "3", "1"], ["3", "5", "1.5"],
    ]


@pytest.mark.parametrize(
    "raw",
    [
        scenario(
            n=8,
            initialLoads={"name": "singleSource", "total": 64},
            adversary={"name": "static", "graph": "path"},
            tau="1",
            roundBudget=200,
        ),
        scenario(
            n=8,
            initialLoads={"name": "singleSource", "total": 64},
            mode="integral",
            tau="1",
            adversary="sortingLine",
            algorithm="randMaxNeighbor",
            roundBudget=500,
        ),
    ],
)
def test_an_unobserved_trial_never_derives_d_r(monkeypatch, raw):
    # d_r is read only by the checks and the trace rows: a trial with
    # neither never sums a matching, and gives the observed trial's outcome.
    calls = []
    derive = engine.twice_shifted_load

    def counting(matching):
        calls.append(len(matching))
        return derive(matching)

    monkeypatch.setattr(engine, "twice_shifted_load", counting)
    plain = run_trial(config_from_dict(raw))
    assert calls == []
    observed, _ = trace_rows(
        config_from_dict({**raw, "checks": ["conservation", "matchingBudget"], "traceLevel": "full"})
    )
    assert calls and any(calls)
    assert observed == plain


# ======================================================================
# the continuous-to-integral reduction
# ======================================================================


def test_continuous_via_integral_converges_and_conserves():
    spec = {
        "n": 4,
        "initialLoads": ["0.75", "0.25", "3.5", "1.5"],
        "mode": "continuous",
        "tau": "0.5",
        "k": "1",
        "adversary": "static",
        "algorithm": "continuousViaIntegral",
        "seed": 5,
    }
    cfg = config_from_dict(spec)
    result = run_trial(cfg)
    assert result.converged
    assert result.final_gap <= Dyadic(1, 1)
    assert total_load(result.final_loads) == Dyadic(6)
    # Remainders were frozen: every final load is its original remainder
    # plus a whole number of quarter-units.
    for w, orig in zip(result.final_loads, cfg.initial_loads[1]):
        diff = (w.as_fraction() - orig) / Fraction(1, 4)
        assert diff.denominator == 1


@pytest.mark.xfail(
    strict=True,
    reason="converged_at is read off the integral sub-trial's quotients, not "
    "the recombined loads (ROADMAP item 5)",
)
def test_continuous_via_integral_reports_when_the_real_loads_reach_tau():
    # Golden seed 221 (n=5 cycle, tau 0.25, budget 400) reports converged_at
    # 400, yet its recombined loads are within tau from round 233.
    (raw,) = [raw for raw in golden_configs() if raw["seed"] == 221]
    cfg = config_from_dict(raw)
    initial = engine.build_initial_loads(cfg, derive_stream(cfg.seed, "loads"))
    _, remainders, exp, step = decompose_by_unit(initial, cfg.tau / 2)

    def within_tau(quotients):
        real = recombine_by_unit(quotients, remainders, step)
        return (max(real) - min(real)) * cfg.tau.denominator <= cfg.tau.numerator << exp

    # Every simulated round of the sub-trial is checked (stride 1); the
    # rounds between them are idle and move no load.
    committed = []

    def spy(before, after, trace, **kwargs):
        committed.append((trace.round_index, after.loads))
        return check_round(before, after, trace, **kwargs)

    with mock.patch.object(engine, "check_round", spy):
        result = run_trial(cfg)
    first = next(index for index, quotients in committed if within_tau(quotients))
    assert first == 233 and result.rounds_played == 400
    assert result.converged_at == first


def test_continuous_via_integral_amount_types_match_deterministic():
    # One node: nothing moves, and both report their amounts as Dyadic.
    spec = {
        "n": 1,
        "initialLoads": ["0.75"],
        "mode": "continuous",
        "tau": "0.25",
        "k": "1",
        "adversary": "static",
    }
    via = run_trial(config_from_dict({**spec, "algorithm": "continuousViaIntegral"}))
    det = run_trial(config_from_dict({**spec, "algorithm": "deterministic"}))
    for result in (via, det):
        assert (result.converged_at, result.rounds_played) == (0, 0)
        assert result.final_loads == [Dyadic(3, 2)]
    for field in ("total", "final_gap", "min_max_gap"):
        got, want = getattr(via, field), getattr(det, field)
        assert (type(got), got) == (type(want), want), field
    assert via.final_gap == Dyadic(0)


# ======================================================================
# experiments
# ======================================================================


def test_run_experiment_aggregates_consecutive_seeds():
    cfg = config_from_dict(scenario(trials=3, seed=20))
    result = run_experiment(cfg)
    assert [t.seed for t in result.trials] == [20, 21, 22]
    assert result.successes == 3
    assert result.success_fraction == 1.0
    assert result.trial_count == 3
    assert result.aborted_trials == 0
    assert result.wilson_low <= 1.0 <= result.wilson_high


def test_run_experiment_parallel_matches_serial():
    spec = scenario(
        n=5,
        mode="integral",
        initialLoads="lineRamp",
        tau="1",
        k="1",
        adversary="randomConnected",
        algorithm="randMaxNeighbor",
        roundBudget=60,
        trials=4,
        seed=100,
    )
    serial = run_experiment(config_from_dict(spec), threads=1)
    parallel = run_experiment(config_from_dict(spec), threads=2)
    assert [t.final_loads for t in serial.trials] == [t.final_loads for t in parallel.trials]
    assert [t.converged_at for t in serial.trials] == [t.converged_at for t in parallel.trials]


def test_wilson_interval_values():
    low, high = wilson_interval(90, 100)
    assert low == pytest.approx(0.8256326956, abs=1e-9)
    assert high == pytest.approx(0.9447714584, abs=1e-9)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)
