"""Scenario configuration: strict JSON parsing with exact numeric fields.

Configs are plain JSON objects.  Numeric *amounts* (tau, k, probabilities,
dyadic loads) travel as exact decimal strings so nothing is ever rounded on
the way in; counts (n, trials, seeds, budgets) are ordinary JSON integers.
Unknown keys are rejected rather than ignored: a typo should fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from .algorithms import ALGORITHM_NAMES, ALGORITHMS, CONTINUOUS_VIA_INTEGRAL
from .adversaries import ADVERSARIES
from .dyadic import DECIMAL_RE, Dyadic
from .loads import MODE_CONTINUOUS, MODE_INTEGRAL, MODES
from .metrics import (
    ALL_CHECKS,
    CHECK_PREFIX_MONOTONE,
    TWO_SIDED_ONLY_CHECKS,
)
from .smoothing import DEFAULT_MAX_REJECTIONS

TRACE_FULL = "full"
TRACE_SUMMARY = "summary"
TRACE_SAMPLED = "sampled"

GENERATOR_NAMES = ("lineRamp", "singleSource", "uniformRandom")

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


def _decimal_fraction(value, what: str) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and DECIMAL_RE.match(value.strip()):
        return Fraction(value.strip())
    raise ConfigError(f"{what} must be an exact decimal string, got {value!r}")


def _fraction_decimal_str(value: Fraction) -> str:
    """Exact decimal rendering for fractions whose denominator divides 10^d."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{value} has no finite decimal expansion")
    digits = max(twos, fives)
    scaled = value * 10**digits
    text = str(abs(scaled.numerator)).rjust(digits + 1, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    mode: str
    initial_loads: tuple  # ("explicit", loads) | (generator_name, params)
    tau: Dyadic
    k: Fraction
    adversary: tuple  # (name, params)
    algorithm: tuple  # (name, params)
    round_budget: Optional[int] = None
    trials: int = 1
    seed: int = 0
    checks: tuple[str, ...] = ()
    check_stride: int = 1
    trace_level: Union[str, tuple] = TRACE_SUMMARY
    stop_on_converge: bool = True
    max_rejections: int = DEFAULT_MAX_REJECTIONS

    @property
    def algorithm_name(self) -> str:
        return self.algorithm[0]

    @property
    def adversary_name(self) -> str:
        return self.adversary[0]

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {
            "n": self.n,
            "mode": self.mode,
            "tau": self.tau.decimal_str(),
            "k": _fraction_decimal_str(self.k),
            "trials": self.trials,
            "seed": self.seed,
        }
        kind, payload = self.initial_loads
        if kind == "explicit":
            out["initialLoads"] = [
                w if isinstance(w, int) else w.decimal_str() for w in payload
            ]
        elif payload:
            out["initialLoads"] = {"name": kind, **payload}
        else:
            out["initialLoads"] = kind

        for key, (name, params) in (("adversary", self.adversary), ("algorithm", self.algorithm)):
            rendered = dict(params)
            if "extraEdgeProb" in rendered:
                rendered["extraEdgeProb"] = _fraction_decimal_str(rendered["extraEdgeProb"])
            if "c1" in rendered:
                rendered["c1"] = _fraction_decimal_str(rendered["c1"])
            out[key] = {"name": name, **rendered} if rendered else name

        if self.round_budget is not None:
            out["roundBudget"] = self.round_budget
        if self.checks:
            out["checks"] = list(self.checks)
        if self.check_stride != 1:
            out["checkStride"] = self.check_stride
        if self.trace_level != TRACE_SUMMARY:
            if isinstance(self.trace_level, tuple):
                out["traceLevel"] = {TRACE_SAMPLED: self.trace_level[1]}
            else:
                out["traceLevel"] = self.trace_level
        if not self.stop_on_converge:
            out["stopOnConverge"] = False
        if self.max_rejections != DEFAULT_MAX_REJECTIONS:
            out["maxRejections"] = self.max_rejections
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def parse_config(text: str) -> ScenarioConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
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
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("n must be a positive integer")

    mode = raw["mode"]
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    tau = _parse_tau(raw["tau"], mode)
    k = _decimal_fraction(raw["k"], "k")
    if k < 0:
        raise ConfigError("k must be non-negative")

    initial_loads = _parse_initial_loads(raw["initialLoads"], n, mode)
    adversary = _parse_adversary(raw["adversary"])
    algorithm = _parse_algorithm(raw["algorithm"])

    round_budget = raw.get("roundBudget")
    if round_budget is not None and (
        not isinstance(round_budget, int) or isinstance(round_budget, bool) or round_budget < 0
    ):
        raise ConfigError("roundBudget must be a non-negative integer")

    trials = raw.get("trials", 1)
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ConfigError("trials must be a positive integer")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")

    checks = _parse_checks(raw.get("checks", []), algorithm[0], adversary[0])

    check_stride = raw.get("checkStride", 1)
    if not isinstance(check_stride, int) or isinstance(check_stride, bool) or check_stride < 1:
        raise ConfigError("checkStride must be a positive integer")

    trace_level = _parse_trace_level(raw.get("traceLevel", TRACE_SUMMARY))

    stop_on_converge = raw.get("stopOnConverge", True)
    if not isinstance(stop_on_converge, bool):
        raise ConfigError("stopOnConverge must be a boolean")

    max_rejections = raw.get("maxRejections", DEFAULT_MAX_REJECTIONS)
    if not isinstance(max_rejections, int) or isinstance(max_rejections, bool) or max_rejections < 1:
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
        trace_level=trace_level,
        stop_on_converge=stop_on_converge,
        max_rejections=max_rejections,
    )
    _validate_combination(cfg)
    return cfg


# ----------------------------------------------------------------------
# field parsers
# ----------------------------------------------------------------------


def _parse_tau(value, mode: str) -> Dyadic:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError("tau must be an exact decimal string")
    try:
        tau = Dyadic.from_decimal(value)
    except ValueError as exc:
        raise ConfigError(f"tau: {exc}") from None
    if tau < 0:
        raise ConfigError("tau must be non-negative")
    if mode == MODE_INTEGRAL and not tau.is_integer:
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
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise ConfigError(f"load {i} must be an integer or decimal string")
            try:
                w = Dyadic.from_decimal(entry)
            except ValueError as exc:
                raise ConfigError(f"load {i}: {exc}") from None
            if w < 0:
                raise ConfigError(f"load {i} is negative")
            if mode == MODE_INTEGRAL:
                if not w.is_integer:
                    raise ConfigError("integral mode requires integer loads")
                loads.append(w.to_int())
            else:
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
        if not isinstance(total, int) or isinstance(total, bool) or total < 0:
            raise ConfigError("singleSource total must be a non-negative integer")
    elif name == "uniformRandom":
        if not set(params) <= {"maxValue", "granularityBits"}:
            raise ConfigError("uniformRandom takes maxValue and optional granularityBits")
        if "maxValue" not in params:
            raise ConfigError("uniformRandom needs maxValue")
        if not isinstance(params["maxValue"], int) or params["maxValue"] < 0:
            raise ConfigError("uniformRandom maxValue must be a non-negative integer")
        bits = params.get("granularityBits", 0)
        if not isinstance(bits, int) or bits < 0:
            raise ConfigError("granularityBits must be a non-negative integer")
        if mode == MODE_INTEGRAL and bits:
            raise ConfigError("granularityBits needs continuous mode")
    elif params:
        raise ConfigError(f"{name} takes no parameters")
    return (name, params)


def _parse_adversary(value) -> tuple:
    name, params = _name_and_params(value, "adversary")
    if name not in ADVERSARIES:
        raise ConfigError(f"unknown adversary {name!r}")
    if name == "static":
        if not set(params) <= {"graph", "edges"}:
            raise ConfigError("static adversary takes 'graph' or 'edges'")
        if "edges" in params and not isinstance(params["edges"], list):
            raise ConfigError("static edges must be a list of pairs")
    elif name == "randomConnected":
        if not set(params) <= {"extraEdgeProb"}:
            raise ConfigError("randomConnected takes only extraEdgeProb")
        if "extraEdgeProb" in params:
            prob = _decimal_fraction(params["extraEdgeProb"], "extraEdgeProb")
            if not 0 <= prob <= 1:
                raise ConfigError("extraEdgeProb must lie in [0, 1]")
            params = {"extraEdgeProb": prob}
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
        if not isinstance(psi, int) or isinstance(psi, bool) or psi < 0:
            raise ConfigError("psi must be a non-negative integer")
    return (name, params)


def _name_and_params(value, what: str) -> tuple[str, dict]:
    if isinstance(value, str):
        return value, {}
    if isinstance(value, dict):
        if "name" not in value:
            raise ConfigError(f"{what} object needs a 'name'")
        return value["name"], {key: val for key, val in value.items() if key != "name"}
    raise ConfigError(f"{what} must be a name or an object with a name")


def _parse_checks(value, algorithm_name: str, adversary_name: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ConfigError("checks must be a list of invariant names")
    seen = []
    for name in value:
        if name not in ALL_CHECKS:
            raise ConfigError(f"unknown invariant check {name!r}")
        if name in seen:
            raise ConfigError(f"duplicate check {name!r}")
        if name in TWO_SIDED_ONLY_CHECKS and algorithm_name != "deterministic":
            raise ConfigError(f"check {name} applies only to the deterministic algorithm")
        if name == CHECK_PREFIX_MONOTONE and adversary_name != "sortingLine":
            raise ConfigError("prefixMonotone needs the sortingLine adversary")
        seen.append(name)
    return tuple(seen)


def _parse_trace_level(value):
    if value in (TRACE_FULL, TRACE_SUMMARY):
        return value
    if isinstance(value, dict) and set(value) == {TRACE_SAMPLED}:
        stride = value[TRACE_SAMPLED]
        if not isinstance(stride, int) or isinstance(stride, bool) or stride < 1:
            raise ConfigError("sampled trace stride must be a positive integer")
        return (TRACE_SAMPLED, stride)
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
