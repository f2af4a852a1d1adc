"""End-to-end tests for the command-line interface."""

import csv
import dataclasses
import json
from pathlib import Path

import pytest

from falsify import cli
from falsify.campaign import (
    CampaignError,
    read_records,
    read_summary,
    run_campaign,
)
from falsify.config import example_config, load_config, parse_config
from falsify.errors import ConfigError
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


def test_report_mab_omits_ci_with_note(tmp_path, capsys):
    out_dir = make_run(tmp_path, capsys, "mab", "m")
    rc, out, _ = run_cli(capsys, "report", str(out_dir))
    assert rc == 0
    doc = json.loads(out)
    assert doc["ci_lo"] is None and doc["ci_hi"] is None
    assert "note" in doc and "mab" in doc["note"]


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
    assert "ci_width_ratio_note" in doc
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
