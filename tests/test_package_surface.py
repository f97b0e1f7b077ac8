"""The names outside code binds to: the package's star-export and every
function, method and class attribute the benchmark's tracer wraps.

`perfbench/spans.py` looks its targets up when it is imported and when
`Tracer.install()` runs, so deleting or renaming one of them fails here,
not only in the benchmark's own steps.

Also what a serial trial costs a fresh interpreter to import: the process
pool and the JSON parser load only on the paths that use them.
"""

import os
import subprocess
import sys
from pathlib import Path

import dynbal

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Run in a fresh interpreter: the tracer wraps every subclass of
# AdversaryPolicy and BalancingAlgorithm it finds, and other test modules
# define their own.
INSTALL_SNIPPET = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from dynbal import engine
from dynbal.algorithms import drivers
from dynbal.dyadic import Dyadic
originals = (engine.decompose_by_unit, engine.recombine_by_unit, Dyadic.__init__)
tracer = spans.Tracer()
try:
    tracer.install()
    assert engine.decompose_by_unit is not drivers.decompose_by_unit
    assert engine.recombine_by_unit is not drivers.recombine_by_unit
finally:
    tracer.uninstall()
assert (engine.decompose_by_unit, engine.recombine_by_unit, Dyadic.__init__) == originals
print("installed and uninstalled")
"""


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from dynbal import *", namespace)
    missing = [name for name in dynbal.__all__ if name not in namespace]
    assert not missing
    assert len(set(dynbal.__all__)) == len(dynbal.__all__)


# Every path a serial trial takes, then the modules it must not have loaded.
COLD_START_SNIPPET = """
import sys
import dynbal
cfg = dynbal.config_from_dict({
    "n": 4, "initialLoads": "lineRamp", "mode": "integral", "tau": "1", "k": "1",
    "adversary": "randomConnected", "algorithm": "randMaxNeighbor",
    "roundBudget": 20, "trials": 2, "checks": ["conservation", "integrality"],
})
dynbal.run_trial(cfg)
dynbal.run_experiment(cfg, threads=1)
print(sorted(m for m in ("concurrent.futures", "multiprocessing", "json") if m in sys.modules))
"""


def run_fresh(snippet: str, *args: str) -> str:
    """Stdout of `snippet` in a fresh interpreter that imports this dynbal."""
    src = str(Path(dynbal.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", snippet, *args],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_benchmark_tracer_installs_and_uninstalls():
    assert run_fresh(INSTALL_SNIPPET, str(SPANS_FILE)) == "installed and uninstalled"


def test_serial_trials_load_neither_the_process_pool_nor_json():
    assert run_fresh(COLD_START_SNIPPET) == "[]"
