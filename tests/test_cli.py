"""The command line, driven in-process through main()."""

import csv
import json

import pytest

from dynbal.cli import main
from dynbal.metrics import InvariantReport


def write_config(tmp_path, name="scenario.json", **overrides):
    base = {
        "n": 4,
        "initialLoads": [0, 1, 3, 0],
        "mode": "continuous",
        "tau": "0.5",
        "k": "0",
        "adversary": "static",
        "algorithm": "deterministic",
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def test_run_converges_with_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "converged: yes" in out
    assert "invariant_failures: 0" in out


def test_run_plans_a_budget_past_float_range(tmp_path, capsys):
    # n T / tau = 4e400: the planned budget's log is taken past float range.
    path = write_config(
        tmp_path,
        initialLoads={"name": "singleSource", "total": 10**400},
        tau="1",
        adversary={"name": "static", "graph": "path"},
    )
    assert main(["run", str(path)]) == 0
    assert "converged: yes" in capsys.readouterr().out


def test_run_plans_smoothed_calls_past_float_range(tmp_path, capsys):
    # smoothedBalance plans its calls in start, even under a roundBudget.
    path = write_config(
        tmp_path,
        initialLoads={"name": "singleSource", "total": 10**400},
        mode="integral",
        tau="1",
        k="1",
        adversary="sortingLine",
        algorithm="smoothedBalance",
        roundBudget=100,
    )
    assert main(["run", str(path)]) == 0
    assert "rounds: 100" in capsys.readouterr().out


def test_run_writes_trace_csv(tmp_path):
    path = write_config(tmp_path, traceLevel="full", checks=["conservation"])
    out_file = tmp_path / "trace.csv"
    assert main(["run", str(path), "--out", str(out_file)]) == 0
    rows = list(csv.reader(out_file.read_text().splitlines()))
    assert rows[0] == ["round", "phi", "max_gap", "d_r", "connections", "converged", "conservation"]
    # Loads (0, 1, 3, 0): pairwise gaps 1+3+0+2+1+3 give potential 10.
    assert rows[1][:3] == ["0", "10", "3"]
    assert rows[-1][5] == "true"


def test_run_budget_exhaustion_is_data_not_an_error(tmp_path, capsys):
    path = write_config(
        tmp_path,
        n=3,
        initialLoads=[8, 0, 0],
        adversary={"name": "static", "graph": "star"},
        tau="0",
        roundBudget=5,
    )
    assert main(["run", str(path)]) == 0
    assert "converged: no" in capsys.readouterr().out


def test_run_exit_two_on_invariant_failure(tmp_path, monkeypatch, capsys):
    def always_failing(before, after, trace, **kwargs):
        report = InvariantReport(trace.round_index)
        report.checks["conservation"] = False
        return report

    monkeypatch.setattr("dynbal.engine.check_round", always_failing)
    path = write_config(tmp_path, checks=["conservation"])
    assert main(["run", str(path)]) == 2
    assert "failed conservation" in capsys.readouterr().out


def test_run_exit_three_on_sampler_abort(tmp_path, capsys):
    path = write_config(
        tmp_path,
        n=6,
        mode="integral",
        initialLoads="lineRamp",
        tau="1",
        k="5",
        algorithm="randMaxNeighbor",
        roundBudget=50,
        maxRejections=1,
    )
    # Hunt for a seed whose very first draw is disconnected.
    hit = None
    for seed in range(40):
        code = main(["run", str(path), "--seed", str(seed)])
        out = capsys.readouterr().out
        if code == 3:
            hit = (seed, out)
            break
        assert code == 0
    assert hit is not None, "no seed tripped the one-draw rejection budget"
    assert "aborted: " in hit[1]


def test_config_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    unknown = write_config(tmp_path, name="unknown.json", frobnicate=1)
    assert main(["run", str(unknown)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_deeply_nested_config_exits_one(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["run", str(deep)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_unwritable_run_output_exits_one(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--out", str(tmp_path / "missing" / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unwritable_experiment_output_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, trials=2)
    # A directory under a plain file cannot be made.
    assert main(["experiment", str(path), "--out", str(path / "sub")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_malformed_static_adversary_exits_one(tmp_path, capsys):
    for i, adversary in enumerate(
        [
            {"name": "static", "graph": "wheel"},
            {"name": "static", "edges": [[0, 7]]},
            {"name": "static", "edges": [[0]]},
            {"name": "static", "edges": [[0, 1], [2, 3]]},
            {"name": "static", "graph": ["path"]},
            {"name": ["x"]},
        ]
    ):
        path = write_config(tmp_path, name=f"static{i}.json", adversary=adversary)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err


def test_granularity_past_its_bound_exits_one(tmp_path, capsys):
    # 10**21 bits once escaped uniformRandom's draw as an OverflowError.
    for bits in (2**16 + 1, 10**21):
        loads = {"name": "uniformRandom", "maxValue": 16, "granularityBits": bits}
        path = write_config(tmp_path, initialLoads=loads)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "granularityBits must be at most 65536" in err
        assert "Traceback" not in err


def test_usage_errors_exit_one(capsys):
    assert main(["run"]) == 1  # missing config argument
    assert main(["frobnicate"]) == 1  # unknown subcommand
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_experiment_writes_summary_files(tmp_path, capsys):
    path = write_config(tmp_path, trials=3, seed=50, checks=["conservation"])
    out_dir = tmp_path / "results"
    assert main(["experiment", str(path), "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "trials: 3" in stdout
    assert "fraction: 1.0" in stdout

    summary = list(csv.reader((out_dir / "summary.csv").read_text().splitlines()))
    assert summary[0][0] == "seed"
    assert [row[0] for row in summary[1:]] == ["50", "51", "52"]
    aggregate = json.loads((out_dir / "aggregate.json").read_text())
    assert aggregate["successes"] == 3
    for seed in (50, 51, 52):
        assert (out_dir / f"trial_{seed}.csv").exists()


def test_experiment_seed_overrides_the_config(tmp_path, capsys):
    path = write_config(tmp_path, trials=2, seed=50)
    out_dir = tmp_path / "results"
    assert main(["experiment", str(path), "--seed", "7", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    summary = list(csv.reader((out_dir / "summary.csv").read_text().splitlines()))
    assert [row[0] for row in summary[1:]] == ["7", "8"]


def test_experiment_runs_trials_on_two_threads(tmp_path, capsys):
    path = write_config(tmp_path, trials=4, seed=90)
    assert main(["experiment", str(path), "--threads", "2"]) == 0
    parallel = capsys.readouterr().out
    assert "successes: 4" in parallel
    assert main(["experiment", str(path)]) == 0
    assert capsys.readouterr().out == parallel


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_experiment_rejects_fewer_than_one_thread(tmp_path, capsys, threads):
    path = write_config(tmp_path, trials=2)
    assert main(["experiment", str(path), "--threads", threads]) == 1
    captured = capsys.readouterr()
    assert "--threads" in captured.err and captured.out == ""


def test_smoothing_test_reports_tv(capsys):
    assert main(["smoothing-test", "4", "1", "20000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    for shape in ("path", "star", "cycle"):
        assert f"{shape}: ball=" in out
    assert "worst_tv:" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate-c1", "3", "1"],  # too few nodes for the targets
        # k is parsed as a config's k is: a fraction or an exponent is refused.
        ["calibrate-c1", "8", "1/3"],
        ["calibrate-c1", "8", "1e400"],
        ["smoothing-test", "40", "6", "1"],  # a ball far above the guard
        ["calibrate-c1", "40", "6"],
    ],
)
def test_diagnostic_argument_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_calibrate_c1_reports_constants(capsys):
    assert main(["calibrate-c1", "8", "1"]) == 0
    out = capsys.readouterr().out
    assert "targets=1: c=32/11 (2.909)" in out
    assert "suggested_c1: 32/11 (2.909;" in out


@pytest.mark.parametrize(
    "argv", [["calibrate-c1", "8", "1", "500"], ["calibrate-c1", "8", "1", "--seed", "2"]]
)
def test_calibrate_c1_takes_no_samples(argv, capsys):
    # The constants are exact: there is no sample count or seed to set.
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_fast_prints_battery(tmp_path, capsys):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    write_config(scenarios, name="small.json")
    assert main(["verify", "--fast", "--scenarios", str(scenarios)]) == 0
    out = capsys.readouterr().out
    for number in range(1, 9):
        assert f"criterion {number}:" in out
    assert "scenario small.json" in out


def test_verify_rejects_empty_scenario_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["verify", "--fast", "--scenarios", str(empty)]) == 1
    assert "no scenarios found" in capsys.readouterr().err


def test_verify_rejects_a_malformed_scenario_before_the_battery(tmp_path, capsys):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    write_config(scenarios, name="good.json")
    (scenarios / "broken.json").write_text(json.dumps({"n": 4}))
    assert main(["verify", "--fast", "--scenarios", str(scenarios)]) == 1
    captured = capsys.readouterr()
    assert "broken.json" in captured.err
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert "criterion" not in captured.out
