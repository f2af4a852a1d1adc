"""Tests for the experiment suite machinery (fast experiments only)."""

import dataclasses
import json
import os
import signal

import pytest

from falsify import bench, cli
from falsify.campaign import run_campaign
from falsify.scenarios import simulate
from falsify.config import parse_config
from falsify.errors import ConfigError


def test_registry_names_unique_and_configs_shipped():
    names = [e.name for e in bench.EXPERIMENTS]
    assert len(names) == len(set(names))
    assert set(names) == {
        "scenario_sweep",
        "speedup",
        "sampler_balance",
        "multi_objective",
    }
    for experiment in bench.EXPERIMENTS:
        for config_name in experiment.config_names:
            config = bench.load_experiment_config(config_name)
            assert parse_config(config.describe()).describe() == config.describe()


def test_unknown_experiment_config_lists_available():
    with pytest.raises(ConfigError, match="sweep_scenario_1"):
        bench.load_experiment_config("no_such_config")


def test_multiobj_configs_pin_the_documented_setup():
    serial = bench.load_experiment_config("multiobj_graph_serial")
    parallel = bench.load_experiment_config("multiobj_graph_parallel")
    disconnected = bench.load_experiment_config("multiobj_disconnected")
    disjunction = bench.load_experiment_config("multiobj_disjunction")

    assert serial.scenario.adversaries == 5
    assert serial.rulebook.edges == frozenset({(0, 2), (2, 4), (1, 3), (3, 4)})
    assert parallel.rulebook.edges == serial.rulebook.edges
    assert parallel.workers == 5 and serial.workers == 1
    assert disconnected.rulebook.edges == frozenset()
    assert len(disjunction.spec) == 1
    assert disjunction.sampler_name == "cross-entropy"
    budgets = {
        c.max_wall_seconds for c in (serial, parallel, disconnected, disjunction)
    }
    assert len(budgets) == 1  # equal budgets across all four configs


def test_speedup_configs_differ_only_in_workers():
    serial = bench.load_experiment_config("speedup_serial").describe()
    parallel = bench.load_experiment_config("speedup_parallel").describe()
    assert serial.pop("workers") == 1
    assert parallel.pop("workers") == 5
    assert serial == parallel
    assert serial["delay"] == 0.2
    assert serial["budget"]["max_wall_seconds"] == 60.0


def test_run_suite_scenario_sweep_passes():
    report, ok = bench.run_suite("scenario_sweep")
    assert ok is True
    assert report["matched"] == 1
    entry = report["experiments"][0]
    assert entry["passed"] is True
    assert len(entry["checks"]) == 7
    for check in entry["checks"]:
        assert check["passed"] is True
        assert check["measured"]["counterexamples"] >= 1
    json.dumps(report)  # report must be JSON-serializable


def test_run_suite_pattern_without_match_is_empty_pass():
    report, ok = bench.run_suite("zzz_nothing")
    assert ok is True
    assert report["matched"] == 0
    assert report["experiments"] == []


def test_crashing_experiment_is_isolated(monkeypatch):
    def boom(configs):
        raise RuntimeError("synthetic experiment crash")

    crasher = bench.Experiment(
        name="crasher",
        description="always crashes",
        config_names=("sweep_scenario_1",),
        runner=boom,
    )
    sweep = next(e for e in bench.EXPERIMENTS if e.name == "scenario_sweep")
    monkeypatch.setattr(bench, "EXPERIMENTS", (crasher, sweep))

    report, ok = bench.run_suite("")
    assert ok is False
    assert report["matched"] == 2
    crashed, passed = report["experiments"]
    assert crashed["passed"] is False
    assert "synthetic experiment crash" in crashed["error"]
    assert passed["passed"] is True  # the crash did not abort the suite


def test_ctrl_c_stops_the_suite(monkeypatch):
    ran = []

    def interrupted(configs):
        ran.append("interrupted")
        config = dataclasses.replace(configs["sweep_scenario_1"], max_samples=20)

        def ctrl_c(config, sample):
            os.kill(os.getpid(), signal.SIGINT)
            return simulate(config.scenario, sample)

        run_campaign(config, simulate_fn=ctrl_c)
        return []

    def after(configs):
        ran.append("after")
        return []

    monkeypatch.setattr(bench, "EXPERIMENTS", tuple(
        bench.Experiment(name=name, description=name,
                         config_names=("sweep_scenario_1",), runner=runner)
        for name, runner in (("interrupted", interrupted), ("after", after))
    ))
    with pytest.raises(KeyboardInterrupt):
        bench.run_suite("")
    assert ran == ["interrupted"]


def test_print_table_renders_verdicts(capsys, monkeypatch):
    report = {
        "pattern": "",
        "matched": 1,
        "passed": False,
        "experiments": [
            {
                "name": "demo",
                "description": "d",
                "configs": [],
                "seconds": 1.25,
                "passed": False,
                "checks": [
                    {
                        "description": "a property",
                        "passed": False,
                        "measured": {"x": 1},
                    }
                ],
                "error": "it broke",
            }
        ],
    }
    bench.print_table(report)
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "a property" in out
    assert '{"x": 1}' in out
    assert "it broke" in out


def test_cli_bench_run_with_pattern(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    rc = cli.main(["bench", "run", "scenario_sweep", "--output", str(out_file)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "scenario_sweep" in captured.out
    assert "PASS" in captured.out
    saved = json.loads(out_file.read_text())
    assert saved["experiments"][0]["name"] == "scenario_sweep"


@pytest.mark.parametrize("where", ["missing/report.json", ""], ids=["missing-dir", "a-dir"])
def test_cli_bench_run_unwritable_output_exits_2_before_the_suite(
    tmp_path, capsys, monkeypatch, where
):
    def suite_must_not_run(pattern=""):
        raise AssertionError("the suite ran before its output path was checked")

    monkeypatch.setattr(bench, "run_suite", suite_must_not_run)
    target = tmp_path / where
    rc = cli.main(["bench", "run", "--output", str(target)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"cannot write {target}" in err


def test_cli_bench_run_failure_exits_nonzero(capsys, monkeypatch):
    def failing_suite(pattern=""):
        return {"pattern": pattern, "matched": 1, "passed": False,
                "experiments": []}, False

    monkeypatch.setattr(bench, "run_suite", failing_suite)
    rc = cli.main(["bench", "run"])
    capsys.readouterr()
    assert rc == 1
