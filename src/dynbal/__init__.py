"""Round-based load balancing on adversarial dynamic networks.

A laboratory for pairwise balancing algorithms that fight an adaptive
adversary over which communication graph appears each round, with optional
graph smoothing in between.  All load arithmetic is exact (integers and
dyadic rationals), so the invariant checks run at zero tolerance.

Typical entry points:

* :func:`dynbal.config.parse_config` - strict scenario JSON -> ScenarioConfig
* :func:`dynbal.engine.run_trial` / :func:`dynbal.engine.run_experiment`
* the ``dynbal`` command line (run / experiment / verify / smoothing-test /
  calibrate-c1)
"""

from .config import ConfigError, ScenarioConfig, config_from_dict, parse_config
from .dyadic import Dyadic, as_dyadic, integral_half_sum
from .engine import (
    EngineError,
    ExperimentResult,
    TrialResult,
    derive_stream,
    run_experiment,
    run_trial,
    wilson_interval,
)
from .graphs import Graph, is_connected
from .loads import MODE_CONTINUOUS, MODE_INTEGRAL, LoadState, total_load
from .metrics import ALL_CHECKS, InvariantReport, check_round, max_gap, potential
from .smoothing import RejectionBudgetExceeded, SmoothingParams, k_smooth, t_smooth

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKS",
    "ConfigError",
    "Dyadic",
    "EngineError",
    "ExperimentResult",
    "Graph",
    "InvariantReport",
    "LoadState",
    "MODE_CONTINUOUS",
    "MODE_INTEGRAL",
    "RejectionBudgetExceeded",
    "ScenarioConfig",
    "SmoothingParams",
    "TrialResult",
    "as_dyadic",
    "check_round",
    "config_from_dict",
    "derive_stream",
    "integral_half_sum",
    "is_connected",
    "k_smooth",
    "max_gap",
    "parse_config",
    "potential",
    "run_experiment",
    "run_trial",
    "t_smooth",
    "total_load",
    "wilson_interval",
    "__version__",
]
