"""Scenario parsing: strict validation and exact numeric fields."""

import dataclasses
import json
import sys
from fractions import Fraction
from unittest import mock

import pytest

from dynbal import acceptance
from dynbal.config import ConfigError, config_from_dict, parse_config
from dynbal.dyadic import Dyadic, decimal_text
from dynbal.engine import build_initial_loads, derive_stream
from dynbal.loads import to_scaled
from test_golden import golden_configs


def minimal(**overrides) -> dict:
    base = {
        "n": 4,
        "initialLoads": "lineRamp",
        "mode": "continuous",
        "tau": "0.5",
        "k": "0",
        "adversary": "static",
        "algorithm": "deterministic",
    }
    base.update(overrides)
    return base


def test_minimal_config_defaults():
    cfg = config_from_dict(minimal())
    assert cfg.n == 4
    assert cfg.initial_loads == ("lineRamp", {})
    assert cfg.tau == Fraction(1, 2) and type(cfg.tau) is Fraction
    assert cfg.k == 0
    assert cfg.adversary == ("static", {})
    assert cfg.algorithm == ("deterministic", {})
    assert cfg.trials == 1
    assert cfg.seed == 0
    assert cfg.checks == ()
    assert cfg.check_stride == 1
    assert cfg.trace_stride is None
    assert cfg.stop_on_converge is True
    assert cfg.round_budget is None


def test_parse_config_rejects_non_json():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("[1, 2]")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on integer digits"
)
def test_integer_past_json_digit_limit_is_a_config_error():
    digits = sys.get_int_max_str_digits() + 700
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(json.dumps(minimal()).replace('"n": 4', f'"n": 4, "seed": {"7" * digits}'))


def test_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown config keys.*budget"):
        config_from_dict(minimal(budget=10))
    raw = minimal()
    del raw["tau"]
    with pytest.raises(ConfigError, match="missing required key 'tau'"):
        config_from_dict(raw)


def test_tau_must_be_dyadic():
    with pytest.raises(ConfigError, match="tau"):
        config_from_dict(minimal(tau="0.1"))
    with pytest.raises(ConfigError, match="tau must be non-negative"):
        config_from_dict(minimal(tau="-1"))


def test_non_dyadic_decimal_is_an_amount_but_not_a_tau_or_load():
    # One parser reads every amount; only tau and loads must be dyadic.
    cfg = config_from_dict(
        minimal(k="0.1", adversary={"name": "randomConnected", "extraEdgeProb": "0.1"})
    )
    assert cfg.k == Fraction(1, 10)
    assert cfg.adversary[1]["extra_edge_prob"] == Fraction(1, 10)
    with pytest.raises(ConfigError, match=r"^tau: 0\.1 has no finite binary expansion$"):
        config_from_dict(minimal(tau="0.1"))
    with pytest.raises(ConfigError, match=r"^load 1: 0\.1 has no finite binary expansion$"):
        config_from_dict(minimal(initialLoads=[1, "0.1", 2, 3]))


def _field_values(cfg):
    """Every value a config holds, with tuples, lists and dicts unpacked."""
    stack = [getattr(cfg, field.name) for field in dataclasses.fields(cfg)]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        else:
            yield value


def _acceptance_configs() -> list:
    """The configs the battery's criteria build, at the fast scale."""
    built = []

    def spy(raw):
        built.append(config_from_dict(raw))
        return built[-1]

    with mock.patch.object(acceptance, "config_from_dict", spy):
        acceptance.deterministic_runs("fast")
        for criterion in (3, 4, 5, 7):
            getattr(acceptance, f"criterion_{criterion}")("fast")
    return built


def test_shipped_configs_hold_no_dyadic():
    # Dyadic is output-only: tau and every load come in as ints and
    # Fractions, and the shared exponent represents each load exactly.
    configs = [config_from_dict(raw) for raw in golden_configs()] + _acceptance_configs()
    assert len(configs) > len(golden_configs())
    for cfg in configs:
        assert not [v for v in _field_values(cfg) if isinstance(v, Dyadic)], cfg
        assert type(cfg.tau) is Fraction
        loads = build_initial_loads(cfg, derive_stream(cfg.seed, "loads"))
        assert all(type(w) in (int, Fraction) for w in loads)
        nums, exp = to_scaled(loads)
        assert [Fraction(num, 2**exp) for num in nums] == loads


def test_decimals_past_int_digit_limit_parse_exactly():
    # Longer than the 4300 digits int(str) accepts by default: a tau copied
    # out of a long trace reads back exactly, and so do k and c1.
    tau = Fraction(1, 2**5000)
    k = Fraction(3, 2**6001) + 1

    def text(value):
        return decimal_text(value.numerator, value.denominator.bit_length() - 1)

    assert len(text(tau)) > 5000
    cfg = config_from_dict(
        minimal(
            tau=text(tau),
            k=text(k),
            algorithm={"name": "continuousViaIntegral", "c1": text(1 + k)},
        )
    )
    assert cfg.tau == tau
    assert cfg.k == k
    assert cfg.algorithm[1]["c1"] == 1 + k
    with pytest.raises(ConfigError, match="tau: .* has no finite binary expansion"):
        config_from_dict(minimal(tau="0." + "3" * 5000))


def test_integral_mode_needs_integer_tau():
    raw = minimal(
        mode="integral",
        tau="0.5",
        k="1",
        algorithm={"name": "gaplessGapReduce", "psi": 8},
    )
    with pytest.raises(ConfigError, match="integral mode requires integer tau"):
        config_from_dict(raw)


def test_explicit_loads_parse_exactly():
    cfg = config_from_dict(minimal(initialLoads=[0, "0.25", "3.5", 8]))
    kind, loads = cfg.initial_loads
    assert kind == "explicit"
    assert loads == (0, Fraction(1, 4), Fraction(7, 2), 8)
    assert all(type(w) is Fraction for w in loads)


def test_explicit_loads_validation():
    with pytest.raises(ConfigError, match="lists 3 loads for n=4"):
        config_from_dict(minimal(initialLoads=[1, 2, 3]))
    with pytest.raises(ConfigError, match="negative"):
        config_from_dict(minimal(initialLoads=[1, 2, 3, "-1"]))
    raw = minimal(
        mode="integral",
        tau="1",
        k="1",
        algorithm={"name": "gaplessGapReduce", "psi": 4},
        initialLoads=[1, 2, 3, "0.5"],
    )
    with pytest.raises(ConfigError, match="integral mode requires integer loads"):
        config_from_dict(raw)


def test_generator_parameter_validation():
    cfg = config_from_dict(minimal(initialLoads={"name": "singleSource", "total": 64}))
    assert cfg.initial_loads == ("singleSource", {"total": 64})
    with pytest.raises(ConfigError, match="exactly one parameter"):
        config_from_dict(minimal(initialLoads={"name": "singleSource"}))
    with pytest.raises(ConfigError, match="needs maxValue"):
        config_from_dict(minimal(initialLoads={"name": "uniformRandom"}))
    with pytest.raises(ConfigError, match="unknown load generator"):
        config_from_dict(minimal(initialLoads="ramp"))


def test_adversary_params():
    cfg = config_from_dict(
        minimal(adversary={"name": "randomConnected", "extraEdgeProb": "0.25"})
    )
    assert cfg.adversary == ("randomConnected", {"extra_edge_prob": Fraction(1, 4)})
    with pytest.raises(ConfigError, match=r"lie in \[0, 1\]"):
        config_from_dict(
            minimal(adversary={"name": "randomConnected", "extraEdgeProb": "2"})
        )
    with pytest.raises(ConfigError, match="unknown adversary"):
        config_from_dict(minimal(adversary="chaos"))
    with pytest.raises(ConfigError, match=r"adversary name must be a string, got \['x'\]"):
        config_from_dict(minimal(adversary={"name": ["x"]}))


def test_static_graph_must_be_named():
    cfg = config_from_dict(minimal(adversary={"name": "static", "graph": "star"}))
    assert cfg.adversary == ("static", {"shape": "star"})
    with pytest.raises(ConfigError, match="unknown graph shape 'wheel'"):
        config_from_dict(minimal(adversary={"name": "static", "graph": "wheel"}))
    with pytest.raises(ConfigError, match=r"static graph must be a shape name, got \['path'\]"):
        config_from_dict(minimal(adversary={"name": "static", "graph": ["path"]}))


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[0, 7], [1, 2], [2, 3]], r"edge \(0, 7\) out of range for n=4"),
        ([[0]], r"list of \[u, v\] integer pairs"),
        ([[0, 1, 2]], r"list of \[u, v\] integer pairs"),
        ([[0, "1"]], r"list of \[u, v\] integer pairs"),
        ([[0, True]], r"list of \[u, v\] integer pairs"),
        ([[0, 1.0]], r"list of \[u, v\] integer pairs"),
        ([(0, 1)], r"list of \[u, v\] integer pairs"),
        ("0-1", r"list of \[u, v\] integer pairs"),
        ([[0, 1], [1, 1], [1, 2], [2, 3]], "self-loop at node 1"),
        ([[0, 1], [2, 3]], "must be connected"),
        ([], "must be connected"),
    ],
)
def test_static_edges_validation(edges, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(minimal(adversary={"name": "static", "edges": edges}))


def test_static_edges_accepted():
    edges = [[0, 1], [2, 1], [3, 2]]
    cfg = config_from_dict(minimal(adversary={"name": "static", "edges": edges}))
    assert cfg.adversary == ("static", {"edges": edges})
    single = config_from_dict(
        minimal(n=1, initialLoads=[3], adversary={"name": "static", "edges": []})
    )
    assert single.adversary == ("static", {"edges": []})


def test_static_graph_and_edges_are_refused_together():
    # Neither key may silently win over the other.
    both = {"name": "static", "graph": "star", "edges": [[0, 1], [1, 2], [2, 3]]}
    with pytest.raises(ConfigError, match="'graph' or 'edges', not both"):
        config_from_dict(minimal(adversary=both))


def test_numbers_reject_booleans():
    with pytest.raises(ConfigError, match="k must be an exact decimal string"):
        config_from_dict(minimal(k=True))
    with pytest.raises(ConfigError, match="maxValue must be a non-negative integer"):
        config_from_dict(minimal(initialLoads={"name": "uniformRandom", "maxValue": True}))
    with pytest.raises(ConfigError, match="granularityBits must be a non-negative integer"):
        bits = {"name": "uniformRandom", "maxValue": 8, "granularityBits": True}
        config_from_dict(minimal(initialLoads=bits))


def test_granularity_bits_are_bounded():
    loads = {"name": "uniformRandom", "maxValue": 8, "granularityBits": 2**16}
    assert config_from_dict(minimal(initialLoads=loads)).initial_loads[1]["granularityBits"] == 2**16
    with pytest.raises(ConfigError, match="granularityBits must be at most 65536"):
        config_from_dict(minimal(initialLoads={**loads, "granularityBits": 2**16 + 1}))


def test_algorithm_params():
    raw = minimal(
        mode="integral",
        tau="0",
        k="1",
        algorithm={"name": "gaplessGapReduce", "psi": 8, "c1": "2.5"},
    )
    cfg = config_from_dict(raw)
    assert cfg.algorithm == ("gaplessGapReduce", {"psi": 8, "c1": Fraction(5, 2)})
    with pytest.raises(ConfigError, match="needs its spread target"):
        config_from_dict(minimal(mode="integral", tau="0", k="1", algorithm={"name": "gaplessGapReduce"}))
    with pytest.raises(ConfigError, match="accepts parameters"):
        config_from_dict(minimal(algorithm={"name": "deterministic", "c1": "2"}))
    with pytest.raises(ConfigError, match=r"algorithm name must be a string, got \['x'\]"):
        config_from_dict(minimal(algorithm={"name": ["x"]}))


def test_mode_algorithm_compatibility():
    with pytest.raises(ConfigError, match="supports modes"):
        config_from_dict(minimal(mode="integral", tau="1"))
    with pytest.raises(ConfigError, match="supports modes"):
        config_from_dict(
            minimal(mode="continuous", k="1", algorithm={"name": "gapReduce"})
        )
    with pytest.raises(ConfigError, match="needs continuous mode"):
        config_from_dict(
            minimal(mode="integral", tau="1", k="1", algorithm="continuousViaIntegral")
        )


def test_smoothing_family_needs_positive_k():
    raw = minimal(mode="integral", tau="1", k="0", algorithm="smoothedBalance")
    with pytest.raises(ConfigError, match="positive smoothing amount"):
        config_from_dict(raw)


def test_drivers_need_tau_at_least_one():
    raw = minimal(mode="integral", tau="0", k="1", algorithm="gaplessBalance")
    with pytest.raises(ConfigError, match="needs tau >= 1"):
        config_from_dict(raw)


def test_tau_zero_needs_explicit_budget():
    with pytest.raises(ConfigError, match="set roundBudget"):
        config_from_dict(minimal(tau="0"))
    cfg = config_from_dict(minimal(tau="0", roundBudget=10))
    assert cfg.round_budget == 10


def test_check_validation():
    with pytest.raises(ConfigError, match="unknown invariant check"):
        config_from_dict(minimal(checks=["entropy"]))
    with pytest.raises(ConfigError, match="duplicate check"):
        config_from_dict(minimal(checks=["conservation", "conservation"]))
    raw = minimal(
        mode="integral",
        tau="1",
        k="1",
        algorithm="smoothedBalance",
        checks=["potentialDrop"],
    )
    with pytest.raises(ConfigError, match="only to a two-sided algorithm"):
        config_from_dict(raw)
    with pytest.raises(ConfigError, match="needs the sortingLine adversary"):
        config_from_dict(minimal(checks=["prefixMonotone"]))
    line = minimal(
        adversary="sortingLine",
        algorithm="randMaxNeighbor",
        mode="integral",
        tau="1",
        checks=["conservation", "prefixMonotone"],
    )
    assert config_from_dict(line).checks == ("conservation", "prefixMonotone")


def test_prefix_monotone_needs_the_impossibility_construction():
    # A matching-based algorithm, integral mode, k 0, and loads rising
    # along node ids in steps of 0 or 1, known when the config is parsed.
    line = minimal(
        adversary="sortingLine",
        algorithm="randMaxNeighbor",
        mode="integral",
        tau="1",
        checks=["prefixMonotone"],
    )
    config_from_dict(line)
    config_from_dict({**line, "initialLoads": [0, 0, 1, 2]})
    config_from_dict({**line, "initialLoads": [3, 3, 3, 3]})
    outside = [
        # The two-sided deterministic algorithm, in its continuous mode.
        {**line, "algorithm": "deterministic", "mode": "continuous", "tau": "0.5"},
        {**line, "mode": "continuous", "tau": "0.5"},
        {**line, "k": "1"},
        {**line, "initialLoads": {"name": "uniformRandom", "maxValue": 48}},
        {**line, "initialLoads": {"name": "singleSource", "total": 8}},
        {**line, "initialLoads": [0, 2, 3, 4]},
        {**line, "initialLoads": [1, 0, 1, 2]},
    ]
    for raw in outside:
        with pytest.raises(ConfigError, match="prefixMonotone needs a matching-based algorithm"):
            config_from_dict(raw)


def test_trace_level_forms():
    assert config_from_dict(minimal(traceLevel="summary")).trace_stride is None
    assert config_from_dict(minimal(traceLevel="full")).trace_stride == 1
    assert config_from_dict(minimal(traceLevel={"sampled": 10})).trace_stride == 10
    with pytest.raises(ConfigError, match="traceLevel"):
        config_from_dict(minimal(traceLevel="verbose"))
    with pytest.raises(ConfigError, match="stride"):
        config_from_dict(minimal(traceLevel={"sampled": 0}))


def test_full_trace_is_sampled_every_round():
    full = config_from_dict(minimal(traceLevel="full"))
    assert full == config_from_dict(minimal(traceLevel={"sampled": 1}))
    assert full != config_from_dict(minimal(traceLevel={"sampled": 2}))


def test_every_field_parses_to_its_argument():
    raw = {
        "n": 8,
        "initialLoads": {"name": "uniformRandom", "maxValue": 8, "granularityBits": 3},
        "mode": "continuous",
        "tau": "0.25",
        "k": "1.5",
        "adversary": {"name": "randomConnected", "extraEdgeProb": "0.1"},
        "algorithm": {"name": "continuousViaIntegral", "c1": "2"},
        "roundBudget": 500,
        "trials": 10,
        "seed": 42,
        "checks": ["conservation", "matchingBudget"],
        "checkStride": 5,
        "traceLevel": {"sampled": 25},
        "stopOnConverge": False,
        "maxRejections": 777,
    }
    cfg = config_from_dict(raw)
    assert cfg.n == 8
    assert cfg.initial_loads == ("uniformRandom", {"maxValue": 8, "granularityBits": 3})
    assert cfg.mode == "continuous"
    assert cfg.tau == Fraction(1, 4)
    assert cfg.k == Fraction(3, 2)
    assert cfg.adversary == ("randomConnected", {"extra_edge_prob": Fraction(1, 10)})
    assert cfg.algorithm == ("continuousViaIntegral", {"c1": Fraction(2)})
    assert cfg.round_budget == 500
    assert cfg.trials == 10
    assert cfg.seed == 42
    assert cfg.checks == ("conservation", "matchingBudget")
    assert cfg.check_stride == 5
    assert cfg.trace_stride == 25
    assert cfg.stop_on_converge is False
    assert cfg.max_rejections == 777
    # JSON text parses to the same config as the object it encodes.
    assert parse_config(json.dumps(raw)) == cfg


def test_explicit_loads_mix_integers_and_decimals():
    cfg = config_from_dict(minimal(initialLoads=["0.5", 2, "3.25", 0]))
    assert cfg.initial_loads == ("explicit", (Fraction(1, 2), 2, Fraction(13, 4), 0))
    integral = config_from_dict(
        minimal(initialLoads=["1", 2, "3.0", 0], mode="integral", tau="1",
                adversary="sortingLine", algorithm="randMaxNeighbor")
    )
    assert integral.initial_loads == ("explicit", (1, 2, 3, 0))
    assert all(type(w) is int for w in integral.initial_loads[1])
