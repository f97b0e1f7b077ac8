"""Scenario configuration: strict JSON parsing with exact numeric fields.

Configs are plain JSON objects.  Numeric *amounts* (tau, k, probabilities,
dyadic loads) travel as exact decimal strings so nothing is ever rounded on
the way in, and one parser, `_decimal_fraction`, turns each into a
`Fraction` (tau and explicit loads must be dyadic: their denominator is a
power of two).  Counts (n, trials, seeds, budgets) are ordinary JSON
integers.  No config field holds a `Dyadic`: that type is output-only.
Unknown keys are rejected rather than ignored: a typo should fail loudly.
A `ScenarioConfig` holds what the engine hands its components (their
constructor arguments, the trace's row stride); it is never serialised back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .algorithms import ALGORITHM_NAMES, ALGORITHMS, CONTINUOUS_VIA_INTEGRAL, KIND_MATCHING
from .adversaries import ADVERSARIES, StaticPolicy
from .loads import MODE_CONTINUOUS, MODE_INTEGRAL, MODES
from .metrics import (
    ALL_CHECKS,
    CHECK_PREFIX_MONOTONE,
    TWO_SIDED_ONLY_CHECKS,
)
from .smoothing import DEFAULT_MAX_REJECTIONS

GENERATOR_NAMES = ("lineRamp", "singleSource", "uniformRandom")

DECIMAL_RE = re.compile(r"^[+-]?\d+(?:\.\d+)?$")

# The finest grid `uniformRandom` may draw on: each load is a numerator of
# `granularityBits` bits and more, so a larger value would have the draw
# allocate without limit (or overflow).
MAX_GRANULARITY_BITS = 1 << 16

_TOP_LEVEL_KEYS = {
    "n",
    "initialLoads",
    "mode",
    "tau",
    "k",
    "adversary",
    "algorithm",
    "roundBudget",
    "trials",
    "seed",
    "checks",
    "checkStride",
    "traceLevel",
    "stopOnConverge",
    "maxRejections",
}


class ConfigError(ValueError):
    """A scenario config that cannot be accepted as written."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decimal_fraction(value, what: str, dyadic: bool = False) -> Fraction:
    """The exact value of an int or a decimal string such as "-1.25".

    With `dyadic`, a value whose denominator is not a power of two (such as
    "0.1") is refused.  libmpdec parses the text exactly and has no digit
    limit, unlike int(str)."""
    if _is_int(value):
        return Fraction(value)
    if not (isinstance(value, str) and DECIMAL_RE.match(value.strip())):
        raise ConfigError(f"{what} must be an exact decimal string, got {value!r}")
    text = value.strip()
    num, den = Decimal(text).as_integer_ratio()
    if dyadic and den & (den - 1):
        raise ConfigError(f"{what}: {text} has no finite binary expansion")
    return Fraction(num, den)


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    mode: str
    initial_loads: tuple  # ("explicit", loads) | (generator_name, params)
    tau: Fraction
    k: Fraction
    adversary: tuple  # (name, constructor keyword arguments)
    algorithm: tuple  # (name, constructor keyword arguments)
    round_budget: Optional[int] = None
    trials: int = 1
    seed: int = 0
    checks: tuple[str, ...] = ()
    check_stride: int = 1
    trace_stride: Optional[int] = None  # every stride-th round's row; None: summary
    stop_on_converge: bool = True
    max_rejections: int = DEFAULT_MAX_REJECTIONS

    @property
    def algorithm_name(self) -> str:
        return self.algorithm[0]


def parse_config(text: str) -> ScenarioConfig:
    import json  # here, so that config_from_dict callers never load it

    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except RecursionError:  # nested deeper than the decoder recurses
        raise ConfigError("config is nested too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ScenarioConfig:
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for required in ("n", "initialLoads", "mode", "tau", "k", "adversary", "algorithm"):
        if required not in raw:
            raise ConfigError(f"missing required key {required!r}")

    n = raw["n"]
    if not _is_int(n) or n < 1:
        raise ConfigError("n must be a positive integer")

    mode = raw["mode"]
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    tau = _parse_tau(raw["tau"], mode)
    k = _decimal_fraction(raw["k"], "k")
    if k < 0:
        raise ConfigError("k must be non-negative")

    initial_loads = _parse_initial_loads(raw["initialLoads"], n, mode)
    adversary = _parse_adversary(raw["adversary"], n)
    algorithm = _parse_algorithm(raw["algorithm"])

    round_budget = raw.get("roundBudget")
    if round_budget is not None and (not _is_int(round_budget) or round_budget < 0):
        raise ConfigError("roundBudget must be a non-negative integer")

    trials = raw.get("trials", 1)
    if not _is_int(trials) or trials < 1:
        raise ConfigError("trials must be a positive integer")

    seed = raw.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError("seed must be an integer")

    checks = _parse_checks(raw.get("checks", []), algorithm[0], adversary[0])

    check_stride = raw.get("checkStride", 1)
    if not _is_int(check_stride) or check_stride < 1:
        raise ConfigError("checkStride must be a positive integer")

    trace_stride = _parse_trace_stride(raw.get("traceLevel", "summary"))

    stop_on_converge = raw.get("stopOnConverge", True)
    if not isinstance(stop_on_converge, bool):
        raise ConfigError("stopOnConverge must be a boolean")

    max_rejections = raw.get("maxRejections", DEFAULT_MAX_REJECTIONS)
    if not _is_int(max_rejections) or max_rejections < 1:
        raise ConfigError("maxRejections must be a positive integer")

    cfg = ScenarioConfig(
        n=n,
        mode=mode,
        initial_loads=initial_loads,
        tau=tau,
        k=k,
        adversary=adversary,
        algorithm=algorithm,
        round_budget=round_budget,
        trials=trials,
        seed=seed,
        checks=checks,
        check_stride=check_stride,
        trace_stride=trace_stride,
        stop_on_converge=stop_on_converge,
        max_rejections=max_rejections,
    )
    _validate_combination(cfg)
    return cfg


# ----------------------------------------------------------------------
# field parsers
# ----------------------------------------------------------------------


def _parse_tau(value, mode: str) -> Fraction:
    tau = _decimal_fraction(value, "tau", dyadic=True)
    if tau < 0:
        raise ConfigError("tau must be non-negative")
    if mode == MODE_INTEGRAL and tau.denominator != 1:
        raise ConfigError("integral mode requires integer tau")
    return tau


def _parse_initial_loads(value, n: int, mode: str) -> tuple:
    if isinstance(value, str):
        name, params = value, {}
    elif isinstance(value, dict):
        if "name" not in value:
            raise ConfigError("initialLoads object needs a 'name'")
        name = value["name"]
        params = {key: val for key, val in value.items() if key != "name"}
    elif isinstance(value, list):
        if len(value) != n:
            raise ConfigError(f"initialLoads lists {len(value)} loads for n={n} nodes")
        loads = []
        for i, entry in enumerate(value):
            w = _decimal_fraction(entry, f"load {i}", dyadic=True)
            if w < 0:
                raise ConfigError(f"load {i} is negative")
            if mode == MODE_INTEGRAL:
                if w.denominator != 1:
                    raise ConfigError("integral mode requires integer loads")
                w = w.numerator
            loads.append(w)
        return ("explicit", tuple(loads))
    else:
        raise ConfigError("initialLoads must be a list, a generator name, or an object")

    if name not in GENERATOR_NAMES:
        raise ConfigError(f"unknown load generator {name!r}")
    if name == "singleSource":
        if set(params) != {"total"}:
            raise ConfigError("singleSource takes exactly one parameter: total")
        total = params["total"]
        if not _is_int(total) or total < 0:
            raise ConfigError("singleSource total must be a non-negative integer")
    elif name == "uniformRandom":
        if not set(params) <= {"maxValue", "granularityBits"}:
            raise ConfigError("uniformRandom takes maxValue and optional granularityBits")
        if "maxValue" not in params:
            raise ConfigError("uniformRandom needs maxValue")
        if not _is_int(params["maxValue"]) or params["maxValue"] < 0:
            raise ConfigError("uniformRandom maxValue must be a non-negative integer")
        bits = params.get("granularityBits", 0)
        if not _is_int(bits) or bits < 0:
            raise ConfigError("granularityBits must be a non-negative integer")
        if bits > MAX_GRANULARITY_BITS:
            raise ConfigError(f"granularityBits must be at most {MAX_GRANULARITY_BITS}")
        if mode == MODE_INTEGRAL and bits:
            raise ConfigError("granularityBits needs continuous mode")
    elif params:
        raise ConfigError(f"{name} takes no parameters")
    return (name, params)


def _parse_adversary(value, n: int) -> tuple:
    name, params = _name_and_params(value, "adversary")
    if name not in ADVERSARIES:
        raise ConfigError(f"unknown adversary {name!r}")
    if name == "static":
        if not set(params) <= {"graph", "edges"}:
            raise ConfigError("static adversary takes 'graph' or 'edges'")
        if len(params) > 1:
            raise ConfigError("static adversary takes 'graph' or 'edges', not both")
        if not isinstance(params.get("graph", ""), str):
            raise ConfigError(f"static graph must be a shape name, got {params['graph']!r}")
        edges = params.get("edges")
        if edges is not None and not (
            isinstance(edges, list)
            and all(isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges)
        ):
            raise ConfigError("static edges must be a list of [u, v] integer pairs")
        params = {"shape" if key == "graph" else key: val for key, val in params.items()}
        try:
            StaticPolicy(**params).bind(n, None)
        except ValueError as exc:
            raise ConfigError(f"static adversary: {exc}") from None
    elif name == "randomConnected":
        if not set(params) <= {"extraEdgeProb"}:
            raise ConfigError("randomConnected takes only extraEdgeProb")
        if "extraEdgeProb" in params:
            prob = _decimal_fraction(params["extraEdgeProb"], "extraEdgeProb")
            if not 0 <= prob <= 1:
                raise ConfigError("extraEdgeProb must lie in [0, 1]")
            params = {"extra_edge_prob": prob}
    elif params:
        raise ConfigError(f"adversary {name} takes no parameters")
    return (name, params)


def _parse_algorithm(value) -> tuple:
    name, params = _name_and_params(value, "algorithm")
    if name not in ALGORITHM_NAMES:
        raise ConfigError(f"unknown algorithm {name!r}")
    allowed = set()
    if name in ("gapReduce", "smoothedBalance", "gaplessBalance", CONTINUOUS_VIA_INTEGRAL):
        allowed = {"c1"}
    elif name == "gaplessGapReduce":
        allowed = {"c1", "psi"}
    if not set(params) <= allowed:
        raise ConfigError(f"algorithm {name} accepts parameters {sorted(allowed)}")
    if "c1" in params:
        c1 = _decimal_fraction(params["c1"], "c1")
        if c1 <= 0:
            raise ConfigError("c1 must be positive")
        params = {**params, "c1": c1}
    if name == "gaplessGapReduce":
        if "psi" not in params:
            raise ConfigError("gaplessGapReduce needs its spread target psi")
        psi = params["psi"]
        if not _is_int(psi) or psi < 0:
            raise ConfigError("psi must be a non-negative integer")
    return (name, params)


def _name_and_params(value, what: str) -> tuple[str, dict]:
    if isinstance(value, str):
        return value, {}
    if isinstance(value, dict):
        if "name" not in value:
            raise ConfigError(f"{what} object needs a 'name'")
        name = value["name"]
        if not isinstance(name, str):
            raise ConfigError(f"{what} name must be a string, got {name!r}")
        return name, {key: val for key, val in value.items() if key != "name"}
    raise ConfigError(f"{what} must be a name or an object with a name")


def _parse_checks(value, algorithm_name: str, adversary_name: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ConfigError("checks must be a list of invariant names")
    # continuousViaIntegral plays smoothedBalance, which is matching-based.
    kind = ALGORITHMS[algorithm_name].kind if algorithm_name in ALGORITHMS else KIND_MATCHING
    seen = []
    for name in value:
        if name not in ALL_CHECKS:
            raise ConfigError(f"unknown invariant check {name!r}")
        if name in seen:
            raise ConfigError(f"duplicate check {name!r}")
        if name in TWO_SIDED_ONLY_CHECKS and kind == KIND_MATCHING:
            raise ConfigError(f"check {name} applies only to a two-sided algorithm")
        if name == CHECK_PREFIX_MONOTONE and adversary_name != "sortingLine":
            raise ConfigError("prefixMonotone needs the sortingLine adversary")
        seen.append(name)
    return tuple(seen)


def _parse_trace_stride(value) -> Optional[int]:
    """traceLevel as a row stride: "full" is 1 and "summary" is None."""
    if value == "summary":
        return None
    if value == "full":
        return 1
    if isinstance(value, dict) and set(value) == {"sampled"}:
        stride = value["sampled"]
        if not _is_int(stride) or stride < 1:
            raise ConfigError("sampled trace stride must be a positive integer")
        return stride
    raise ConfigError("traceLevel must be 'full', 'summary', or {'sampled': stride}")


# ----------------------------------------------------------------------
# cross-field rules
# ----------------------------------------------------------------------


def _validate_combination(cfg: ScenarioConfig) -> None:
    name = cfg.algorithm_name
    if name == CONTINUOUS_VIA_INTEGRAL:
        if cfg.mode != MODE_CONTINUOUS:
            raise ConfigError("continuousViaIntegral needs continuous mode")
        if not cfg.tau > 0:
            raise ConfigError("continuousViaIntegral needs a positive tau")
    else:
        supported = ALGORITHMS[name].modes
        if cfg.mode not in supported:
            raise ConfigError(
                f"algorithm {name} supports modes {supported}, config says {cfg.mode!r}"
            )

    needs_smoothing = name in (
        "gapReduce",
        "smoothedBalance",
        "gaplessGapReduce",
        "gaplessBalance",
        CONTINUOUS_VIA_INTEGRAL,
    )
    if needs_smoothing and cfg.k == 0:
        raise ConfigError(f"algorithm {name} needs a positive smoothing amount k")

    if name in ("smoothedBalance", "gaplessBalance") and not cfg.tau >= 1:
        raise ConfigError(f"algorithm {name} needs tau >= 1")

    if name in ("deterministic", "randMaxNeighbor") and cfg.tau == 0 and cfg.round_budget is None:
        raise ConfigError("tau 0 gives an unbounded default budget; set roundBudget")

    # Prefix sums stay put only in the paper's integral impossibility construction.
    if CHECK_PREFIX_MONOTONE in cfg.checks:
        kind, loads = cfg.initial_loads
        ramp = kind == "lineRamp" or (
            kind == "explicit" and all(b - a in (0, 1) for a, b in zip(loads, loads[1:]))
        )
        if not (cfg.mode == MODE_INTEGRAL and ALGORITHMS[name].kind == KIND_MATCHING
                and cfg.k == 0 and ramp):
            raise ConfigError("prefixMonotone needs a matching-based algorithm in integral "
                              "mode, k 0, and loads rising by 0 or 1 per node id")
