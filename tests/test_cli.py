"""End-to-end tests for the command-line interface."""

import csv
import dataclasses
import json
import multiprocessing
import os
import re
import signal
import time
from pathlib import Path

import pytest

from falsify import campaign, cli
from falsify.campaign import (
    CampaignError,
    read_records,
    read_result,
    read_summary,
    run_campaign,
)
from falsify.config import example_config, parse_config
from falsify.errors import ConfigError, FalsifyError
from falsify.samplers import make_sampler
from falsify.scenarios import ScenarioConfig, simulate


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_config(tmp_path, name="c.json", **changes):
    doc = example_config(changes.pop("scenario_id", "1"))
    doc["budget"]["max_samples"] = changes.pop("max_samples", 10)
    doc["sampler"] = {"name": changes.pop("sampler", "halton")}
    doc["output_dir"] = str(tmp_path / changes.pop("out", "run"))
    doc.update(changes)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path, Path(doc["output_dir"]) if doc["output_dir"] else None


# ---------------------------------------------------------------------------
# run


def test_run_writes_all_artifacts_and_honors_budget(tmp_path, capsys):
    cfg_path, out_dir = write_config(tmp_path, max_samples=10)
    rc, out, _ = run_cli(capsys, "run", str(cfg_path))
    assert rc == 0
    summary = read_summary(out_dir)
    assert summary["totals"]["samples"] == 10
    for name in (
        "error.csv",
        "safe.csv",
        "records.jsonl",
        "summary.json",
        "sampler_snapshot.json",
    ):
        assert (out_dir / name).exists(), name
    stdout_doc = json.loads(out)
    assert stdout_doc["totals"]["samples"] == 10


def test_run_cyclic_rulebook_exits_2_and_names_cycle(tmp_path, capsys):
    doc = example_config("intersection")
    doc["scenario"]["adversaries"] = 3
    del doc["feature_space"], doc["spec"]
    doc["rulebook"] = {"metrics": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
    doc["output_dir"] = str(tmp_path / "x")
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps(doc))

    rc, _, err = run_cli(capsys, "run", str(path))
    assert rc == 2
    assert "cycle" in err
    assert "0 -> 1 -> 2 -> 0" in err


def test_run_rejects_unknown_config_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"scenario": {"id": "1"}, "budget": {"max_samples": 2}, "zzz": 1})
    )
    rc, _, err = run_cli(capsys, "run", str(path))
    assert rc == 2
    assert "zzz" in err


def test_run_rejects_dimensions_that_misname_the_features(tmp_path, capsys):
    # Scenario 1 binds ego_speed, ego_distance, adv_speed, adv_distance by
    # position; these names would put adv_distance's range on ego_speed.
    doc = example_config("1")
    names = ["adv_distance", "typo", "ego_speed", "ego_distance"]
    for dim, name in zip(doc["feature_space"]["dimensions"], names):
        dim["name"] = name
    with pytest.raises(ConfigError, match="typo"):
        parse_config(doc)
    path, _ = write_config(tmp_path, feature_space=doc["feature_space"])
    rc, _, err = run_cli(capsys, "run", str(path))
    assert rc == 2
    assert "'ego_speed', 'ego_distance', 'adv_speed', 'adv_distance'" in err


@pytest.mark.parametrize("where, edit, named", [
    ("workers", lambda doc: doc.update(workers="x"), "workers must be an integer, got 'x'"),
    ("lo", lambda doc: doc["feature_space"]["dimensions"][0].update(lo="a"),
     "feature_space.dimensions[0].lo must be a number, got 'a'"),
    ("max_samples", lambda doc: doc["budget"].update(max_samples=[3]),
     "budget.max_samples must be an integer, got [3]"),
    ("threshold", lambda doc: doc["spec"][0].update(threshold="near"),
     "threshold must be a number, got 'near'"),
    ("fractional workers", lambda doc: doc.update(workers=2.7),
     "workers must be an integer, got 2.7"),
    ("fractional max_samples", lambda doc: doc["budget"].update(max_samples=10.9),
     "budget.max_samples must be an integer, got 10.9"),
    ("fractional adversaries", lambda doc: doc["scenario"].update(adversaries=2.5),
     "scenario.adversaries must be an integer, got 2.5"),
    ("string workers", lambda doc: doc.update(workers="3"),
     "workers must be an integer, got '3'"),
    ("bool workers", lambda doc: doc.update(workers=True),
     "workers must be an integer, got True"),
    ("string delay", lambda doc: doc.update(delay="0.5"),
     "delay must be a number, got '0.5'"),
    ("bool lo", lambda doc: doc["feature_space"]["dimensions"][0].update(lo=False),
     "feature_space.dimensions[0].lo must be a number, got False"),
])
def test_run_rejects_a_non_numeric_value(tmp_path, capsys, where, edit, named):
    doc = example_config("1")
    edit(doc)
    with pytest.raises(FalsifyError, match=re.escape(named)):
        parse_config(doc)
    doc["output_dir"] = str(tmp_path / "run")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "run", str(path))
    assert rc == 2 and out == ""
    assert named in err and "Traceback" not in err


def test_run_accepts_an_integral_float_for_an_integer_field(tmp_path, capsys):
    path, out_dir = write_config(tmp_path, workers=2.0, max_samples=4.0)
    rc, _, _ = run_cli(capsys, "run", str(path))
    assert rc == 0
    summary = read_summary(out_dir)
    assert summary["config"]["workers"] == 2 and summary["totals"]["samples"] == 4


def test_run_out_of_range_alpha_exits_2(tmp_path, capsys):
    path, out_dir = write_config(tmp_path, sampler="cross-entropy")
    doc = json.loads(path.read_text())
    doc["sampler"]["alpha"] = 1.5
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "run", str(path))
    assert rc == 2 and out == ""
    assert "alpha must be in (0, 1), got 1.5" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("delay", ["nan", "inf", "-inf"])
def test_run_rejects_a_non_finite_delay(tmp_path, capsys, delay):
    path, _ = write_config(tmp_path)
    rc, out, err = run_cli(capsys, "run", str(path), f"--delay={delay}")
    assert rc == 2 and out == ""
    assert f"delay must be finite and >= 0, got {float(delay)}" in err


def test_run_exits_2_before_the_campaign_if_the_output_dir_cannot_be_made(
        tmp_path, capsys, monkeypatch):
    path, out_dir = write_config(tmp_path)
    out_dir.write_text("a file, not a directory")
    ran = []
    monkeypatch.setattr(cli, "run_campaign", lambda *args: ran.append(args))
    rc, out, err = run_cli(capsys, "run", str(path))
    assert rc == 2 and out == "" and not ran
    assert f"cannot create output directory {out_dir}" in err
    assert "Traceback" not in err


def test_run_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = run_cli(capsys, "run", str(path))
    assert rc == 2
    assert "not valid JSON" in err


def test_run_missing_config_file_exits_2(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "run", str(tmp_path / "absent.json"))
    assert rc == 2
    assert "not found" in err


def test_run_unreadable_config_exits_2(tmp_path, capsys, monkeypatch):
    rc, _, err = run_cli(capsys, "run", str(tmp_path))
    assert rc == 2
    assert "cannot read config file" in err and "directory" in err

    path, _ = write_config(tmp_path)

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    rc, _, err = run_cli(capsys, "run", str(path))
    assert rc == 2
    assert f"cannot read config file {path}: Permission denied" in err


def test_run_requires_an_output_directory(tmp_path, capsys):
    doc = example_config("1")
    doc["budget"]["max_samples"] = 3
    doc["output_dir"] = None
    path = tmp_path / "noout.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run_cli(capsys, "run", str(path))
    assert rc == 2
    assert "output" in err


def test_run_worker_and_delay_overrides(tmp_path, capsys):
    cfg_path, out_dir = write_config(tmp_path, max_samples=10)
    rc, _, _ = run_cli(
        capsys, "run", str(cfg_path), "--workers", "5", "--delay", "0.05"
    )
    assert rc == 0
    summary = read_summary(out_dir)
    assert summary["config"]["workers"] == 5
    assert summary["config"]["delay"] == 0.05
    assert summary["totals"]["samples"] == 10
    workers_used = {r.worker for r in read_records(out_dir)}
    assert len(workers_used) > 1


def test_run_flag_overrides_shadow_config(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, sampler="halton", max_samples=10)
    out2 = tmp_path / "override"
    rc, _, _ = run_cli(
        capsys,
        "run",
        str(cfg_path),
        "--sampler",
        "mab",
        "--seed",
        "42",
        "--budget-samples",
        "6",
        "--output",
        str(out2),
    )
    assert rc == 0
    summary = read_summary(out2)
    assert summary["config"]["sampler"]["name"] == "mab"
    assert summary["config"]["seed"] == 42
    assert summary["totals"]["samples"] == 6


def test_run_budget_seconds_override(tmp_path, capsys):
    cfg_path, out_dir = write_config(tmp_path)
    rc, _, _ = run_cli(
        capsys,
        "run",
        str(cfg_path),
        "--budget-samples",
        "1000000",
        "--budget-seconds",
        "0.3",
    )
    assert rc == 0
    summary = read_summary(out_dir)
    assert summary["config"]["budget"]["max_wall_seconds"] == 0.3
    assert 1 <= summary["totals"]["samples"] < 1000000


def test_run_aborts_with_exit_3_and_partial_artifacts(tmp_path, capsys, monkeypatch):
    cfg_path, out_dir = write_config(tmp_path, max_samples=20)

    def fake_run(config):
        partial = run_campaign(dataclasses.replace(config, max_samples=4))
        raise CampaignError("synthetic abort for testing", partial)

    monkeypatch.setattr(cli, "run_campaign", fake_run)
    rc, _, err = run_cli(capsys, "run", str(cfg_path))
    assert rc == 3
    assert "synthetic abort" in err
    # partial artifacts still land on disk
    assert (out_dir / "records.jsonl").exists()
    assert read_summary(out_dir)["totals"]["samples"] == 4


@pytest.mark.parametrize("workers", [1, 2])
def test_run_ctrl_c_leaves_a_readable_partial_run(tmp_path, capsys, monkeypatch,
                                                  workers):
    # The simulation of sample 5 signals the coordinator, as a Ctrl-C at the
    # terminal would: inline at W=1, from a forked worker at W=2.
    cfg_path, out_dir = write_config(tmp_path, max_samples=40)
    config = parse_config(json.loads(cfg_path.read_text()))
    sampler = make_sampler("halton", config.space, config.seed)
    doomed = [sampler.next_sample() for _ in range(6)][5].values
    coordinator = os.getpid()

    def interrupted_on_sample_5(config, sample):
        if sample.values == doomed:
            os.kill(coordinator, signal.SIGINT)
            time.sleep(0.05)  # still in flight when the coordinator stops
        return simulate(config.scenario, sample)

    monkeypatch.setattr(campaign, "default_simulator", interrupted_on_sample_5)
    rc, _, err = run_cli(capsys, "run", str(cfg_path), "--workers", str(workers))
    assert rc == 3
    assert "interrupted" in err and "partial artifacts written" in err
    result = read_result(out_dir)
    ids = sorted(r.id for r in result.records)
    # The samples in flight are finished, sample 5 among them.
    assert ids == list(range(result.dispatched)) and 5 in ids
    assert result.dispatched < 40 and result.failed == 0
    assert result.snapshot["completed"] == len(ids)
    assert multiprocessing.active_children() == []
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


@pytest.mark.parametrize("workers", ["1", "2", "4"])
def test_run_absent_agent_aborts_at_every_worker_count(
    tmp_path, capsys, caplog, workers
):
    # A spec naming an agent the scenario lacks fails on every sample: a
    # config fault, so the campaign aborts instead of counting failures.
    cfg_path, out_dir = write_config(
        tmp_path, spec=[{"metric": "min_separation", "agent": "adv9"}]
    )
    rc, _, err = run_cli(capsys, "run", str(cfg_path), "--workers", workers)
    assert rc == 3
    assert "adv9" in err
    # The other samples in flight hit the same fault; their repeats are
    # logged as one line, without tracebacks.
    assert sum(1 for r in caplog.records if r.exc_info) <= 1
    assert sum("while draining" in r.getMessage() for r in caplog.records) <= 1
    assert (out_dir / "records.jsonl").exists()
    summary = read_summary(out_dir)
    assert summary["totals"]["samples"] == 0
    assert summary["failed"] == 0


def test_dump_trajectories_one_frame_per_line(tmp_path, capsys):
    cfg_path, out_dir = write_config(tmp_path, max_samples=4)
    rc, _, _ = run_cli(capsys, "run", str(cfg_path), "--dump-trajectories")
    assert rc == 0
    lines = [
        json.loads(line)
        for line in (out_dir / "trajectories.jsonl").read_text().splitlines()
    ]
    records = read_records(out_dir)
    expected = 0
    for rec in records:
        traj = simulate(ScenarioConfig("1"), rec.sample.values)
        expected += traj.frame_count
    assert len(lines) == expected
    first = lines[0]
    assert first["frame"] == 0
    assert set(first["agents"]) == {"ego", "adv0"}
    assert {"x", "y", "heading", "speed"} <= set(first["agents"]["ego"])
    # frames for one sample are contiguous and increasing
    per_sample = [ln["frame"] for ln in lines if ln["sample"] == records[0].id]
    assert per_sample == list(range(len(per_sample)))


# ---------------------------------------------------------------------------
# report


def make_run(tmp_path, capsys, sampler, out, seed=0, samples=40):
    cfg_path, out_dir = write_config(
        tmp_path,
        name=f"{out}.json",
        sampler=sampler,
        max_samples=samples,
        out=out,
        seed=seed,
    )
    rc, _, _ = run_cli(capsys, "run", str(cfg_path))
    assert rc == 0
    return out_dir


def test_report_halton_has_ci(tmp_path, capsys):
    out_dir = make_run(tmp_path, capsys, "halton", "h")
    rc, out, _ = run_cli(capsys, "report", str(out_dir))
    assert rc == 0
    doc = json.loads(out)
    assert doc["sampler"] == "halton"
    assert doc["confidence"] == 0.95
    assert 0.0 <= doc["ci_lo"] <= doc["proportion"] <= doc["ci_hi"] <= 1.0
    assert "note" not in doc


def adaptive_note(sampler):
    """The one sentence report and compare print for an adaptive sampler."""
    return (f"confidence interval omitted: the {sampler!r} sampler adapts to "
            "feedback, so its hit rate is a biased estimate of the unsafe probability")


def test_report_mab_omits_ci_with_note(tmp_path, capsys):
    out_dir = make_run(tmp_path, capsys, "mab", "m")
    rc, out, _ = run_cli(capsys, "report", str(out_dir))
    assert rc == 0
    doc = json.loads(out)
    assert doc["ci_lo"] is None and doc["ci_hi"] is None
    assert doc["note"] == adaptive_note("mab")


def test_report_writes_scatter_csv(tmp_path, capsys):
    out_dir = make_run(tmp_path, capsys, "uniform", "u")
    rc, out, _ = run_cli(capsys, "report", str(out_dir))
    assert rc == 0
    doc = json.loads(out)
    scatter = Path(doc["scatter_csv"])
    assert scatter == out_dir / "scatter.csv"
    with scatter.open() as fh:
        rows = list(csv.DictReader(fh))
    records = read_records(out_dir)
    assert len(rows) == len(records)
    header = rows[0]
    assert set(header) == {
        "ego_speed",
        "ego_distance",
        "adv_speed",
        "adv_distance",
        "counterexample",
    }
    for row, rec in zip(rows, records):
        assert [float(row[n]) for n in ("ego_speed", "ego_distance", "adv_speed", "adv_distance")] == list(rec.sample.values)
        assert row["counterexample"] == str(int(rec.is_counterexample))


def test_report_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc, _, err = run_cli(capsys, "report", str(empty))
    assert rc == 2
    assert "summary.json" in err


def test_report_missing_dir_exits_2(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "report", str(tmp_path / "nope"))
    assert rc == 2


def truncate_records(out_dir, nbytes=40):
    path = out_dir / "records.jsonl"
    path.write_bytes(path.read_bytes()[:-nbytes])
    return path


def test_report_malformed_run_dir_exits_2(tmp_path, capsys):
    out_dir = make_run(tmp_path, capsys, "halton", "h")
    summary = read_summary(out_dir)
    del summary["maximal"]
    (out_dir / "summary.json").write_text(json.dumps(summary))
    rc, out, err = run_cli(capsys, "report", str(out_dir))
    assert rc == 2 and out == ""
    assert f"malformed {out_dir / 'summary.json'}: missing key 'maximal'" in err

    out_dir = make_run(tmp_path, capsys, "halton", "h2")
    path = truncate_records(out_dir)
    rc, out, err = run_cli(capsys, "report", str(out_dir))
    assert rc == 2 and out == ""
    assert f"malformed {path}, line 40" in err


@pytest.mark.parametrize("command", ["report", "compare"])
@pytest.mark.parametrize("edit", [
    lambda summary: summary.update(dispatched="x"),
    lambda summary: summary["totals"].update(wall_seconds="soon"),
    lambda summary: summary["config"].update(workers="x"),
], ids=["dispatched", "wall_seconds", "config-workers"])
def test_non_numeric_summary_field_exits_2(tmp_path, capsys, command, edit):
    out_dir = make_run(tmp_path, capsys, "halton", "h")
    summary = read_summary(out_dir)
    edit(summary)
    (out_dir / "summary.json").write_text(json.dumps(summary))
    dirs = [str(out_dir)] * (2 if command == "compare" else 1)
    rc, out, err = run_cli(capsys, command, *dirs)
    assert rc == 2 and out == ""
    assert f"malformed {out_dir / 'summary.json'}" in err


# ---------------------------------------------------------------------------
# compare


def test_compare_identical_dirs_gives_unit_ratios(tmp_path, capsys):
    out_dir = make_run(tmp_path, capsys, "halton", "h")
    rc, out, _ = run_cli(capsys, "compare", str(out_dir), str(out_dir))
    assert rc == 0
    doc = json.loads(out)
    assert doc["speedup_factor"] == 1.0
    assert doc["ci_width_ratio"] == 1.0


def test_compare_adaptive_samplers_counts_and_diversity_only(tmp_path, capsys):
    dir_mab = make_run(tmp_path, capsys, "mab", "m")
    dir_ce = make_run(tmp_path, capsys, "cross-entropy", "c")
    rc, out, _ = run_cli(capsys, "compare", str(dir_mab), str(dir_ce))
    assert rc == 0
    doc = json.loads(out)
    assert doc["ci_width_ratio"] is None
    assert doc["ci_width_ratio_note"] == adaptive_note("mab")
    expected_a = sum(1 for r in read_records(dir_mab) if r.is_counterexample)
    expected_b = sum(1 for r in read_records(dir_ce) if r.is_counterexample)
    assert doc["counterexamples"] == {"a": expected_a, "b": expected_b}
    assert doc["diversity"]["a"] >= 0 and doc["diversity"]["b"] >= 0
    assert doc["speedup_factor"] == 1.0  # equal sample budgets


def test_compare_scenario_mismatch_exits_2(tmp_path, capsys):
    dir_a = make_run(tmp_path, capsys, "uniform", "a")
    cfg_path, out_b = write_config(
        tmp_path, name="b.json", scenario_id="2", sampler="uniform", out="b"
    )
    rc, _, _ = run_cli(capsys, "run", str(cfg_path))
    assert rc == 0
    rc, _, err = run_cli(capsys, "compare", str(dir_a), str(out_b))
    assert rc == 2
    assert "different scenarios" in err


def test_compare_malformed_run_dir_exits_2(tmp_path, capsys):
    dir_a = make_run(tmp_path, capsys, "uniform", "a")
    dir_b = make_run(tmp_path, capsys, "uniform", "b")
    path = truncate_records(dir_b)
    rc, out, err = run_cli(capsys, "compare", str(dir_a), str(dir_b))
    assert rc == 2 and out == ""
    assert f"malformed {path}, line 40" in err


def test_compare_missing_artifacts_exits_2(tmp_path, capsys):
    dir_a = make_run(tmp_path, capsys, "uniform", "a")
    rc, _, err = run_cli(capsys, "compare", str(dir_a), str(tmp_path / "ghost"))
    assert rc == 2


# ---------------------------------------------------------------------------
# scenarios / config round trip / self-validation


def test_scenarios_lists_the_catalog(capsys):
    rc, out, _ = run_cli(capsys, "scenarios")
    assert rc == 0
    for sid in ("1", "2", "3", "4", "5", "6", "7", "intersection"):
        assert f"{sid}:" in out


def test_scenarios_json_mode(capsys):
    rc, out, _ = run_cli(capsys, "scenarios", "--json")
    assert rc == 0
    catalog = json.loads(out)
    assert [e["id"] for e in catalog] == [
        "1", "2", "3", "4", "5", "6", "7", "intersection",
    ]
    for entry in catalog:
        assert entry["features"], entry["id"]


@pytest.mark.parametrize("sid", ["1", "4", "7", "intersection"])
def test_example_config_round_trips(sid):
    doc = example_config(sid)
    config = parse_config(doc)
    assert config.describe() == doc
    assert parse_config(config.describe()).describe() == doc


def test_emitted_files_reparse_under_their_schemas(tmp_path, capsys):
    out_dir = make_run(tmp_path, capsys, "halton", "h")
    summary = read_summary(out_dir)
    reparsed = parse_config(summary["config"])
    assert reparsed.describe() == summary["config"]
    records = read_records(out_dir)
    assert len(records) == summary["totals"]["samples"]
    snapshot = json.loads((out_dir / "sampler_snapshot.json").read_text())
    assert snapshot["sampler"] == "halton"
