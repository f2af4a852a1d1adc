"""Orchestrator tests: budget accounting, determinism, parallel/serial
equivalence, failure isolation, persistence, and coverage statistics."""

import csv
import json
import time

import numpy as np
import pytest

from falsify import analysis as an
from falsify import campaign as ca
from falsify import rulebook as rb
from falsify import scenarios as sc
from falsify.errors import ConfigError, DomainError
from falsify.monitor import TERM_TIME_LIMIT
from falsify.space import SampleVector


def make_config(scenario_id="band", **overrides):
    scen = sc.ScenarioConfig(
        scenario_id, adversaries=overrides.pop("adversaries", 1)
    )
    spec = sc.default_specification(scen)
    defaults = dict(
        space=sc.default_feature_space(scen),
        scenario=scen,
        spec=spec,
        rulebook=rb.disconnected(len(spec)),
        sampler_name="uniform",
        max_samples=30,
        seed=5,
    )
    defaults.update(overrides)
    return ca.CampaignConfig(**defaults)


def semantic(record):
    """Record fields that determinism contracts cover (timestamps excluded)."""
    return (
        record.id,
        record.sample.values,
        record.sample.buckets,
        record.rho,
        record.b,
        record.is_counterexample,
        record.termination,
    )


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_requires_a_budget():
    with pytest.raises(ConfigError, match="budget"):
        make_config(max_samples=None)


def test_config_rejects_bad_workers():
    with pytest.raises(ConfigError, match="workers"):
        make_config(workers=0)


def test_config_rejects_metric_count_mismatch():
    with pytest.raises(ConfigError, match="rulebook"):
        make_config(rulebook=rb.disconnected(4))


def test_config_rejects_space_scenario_mismatch():
    other = sc.default_feature_space(sc.ScenarioConfig("1"))
    with pytest.raises(ConfigError, match="binds"):
        make_config(space=other)


def test_config_rejects_unknown_sampler():
    with pytest.raises(ConfigError, match="sampler"):
        make_config(sampler_name="gradient")


# ---------------------------------------------------------------------------
# Serial loop
# ---------------------------------------------------------------------------


def test_serial_partitions_budget():
    result = ca.run_campaign(make_config(max_samples=10))
    assert len(result.records) == 10
    assert len(result.error_table) + len(result.safe_table) == 10
    assert [r.id for r in result.records] == list(range(10))
    assert result.dispatched == 10 and result.failed == 0
    assert result.totals["samples"] == 10
    assert result.totals["counterexamples"] == len(result.error_table)
    assert all(r.is_counterexample for r in result.error_table)
    assert not any(r.is_counterexample for r in result.safe_table)


def test_serial_is_deterministic():
    a = ca.run_campaign(make_config(seed=9))
    b = ca.run_campaign(make_config(seed=9))
    c = ca.run_campaign(make_config(seed=10))
    assert [semantic(r) for r in a.records] == [semantic(r) for r in b.records]
    assert [semantic(r) for r in a.records] != [semantic(r) for r in c.records]
    assert a.maximal == b.maximal


def test_scenario_1_uniform_finds_a_counterexample():
    # The unsafe region holds >= 5% of the volume by construction, so 200
    # uniform samples miss it with probability under 1e-4.
    result = ca.run_campaign(make_config("1", max_samples=200, seed=3))
    assert len(result.error_table) >= 1


def test_serial_abort_reports_partial_result():
    calls = {"n": 0}

    def flaky(config, sample):
        calls["n"] += 1
        if calls["n"] > 7:
            raise DomainError("simulator exploded")
        return ca.default_simulator(config, sample)

    with pytest.raises(ca.CampaignError, match="aborted after 7 samples") as err:
        ca.run_campaign(make_config(max_samples=30), simulate_fn=flaky)
    partial = err.value.partial
    assert len(partial.records) == 7
    assert partial.dispatched == 8  # the failing sample was dispatched


def test_wall_clock_budget_stops_dispatch():
    config = make_config(max_samples=None, max_wall_seconds=0.3, delay=0.02)
    t0 = time.perf_counter()
    result = ca.run_campaign(config)
    elapsed = time.perf_counter() - t0
    assert result.wall_seconds >= 0.3
    assert elapsed < 3.0
    assert 1 <= len(result.records) <= 30


def test_mab_campaign_maximal_matches_sampler_keys():
    config = make_config(
        "two_region", sampler_name="mab", max_samples=60, seed=2
    )
    result = ca.run_campaign(config)
    assert len(result.error_table) > 0
    # Campaign-level maximal fold and the bandit's key set are the same
    # computation applied in the same order; they must agree exactly.
    assert [list(m) for m in result.maximal] == result.snapshot["maximal"]


# ---------------------------------------------------------------------------
# Parallel pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sampler", ["uniform", "halton"])
def test_nonadaptive_samples_independent_of_workers(sampler):
    def jittery(config, sample):
        time.sleep(float(np.random.default_rng().random()) * 0.003)
        return ca.default_simulator(config, sample)

    serial = ca.run_campaign(make_config(sampler_name=sampler, max_samples=40))
    parallel = ca.run_campaign(
        make_config(sampler_name=sampler, max_samples=40, workers=5),
        simulate_fn=jittery,
    )
    by_id_serial = {r.id: r.sample for r in serial.records}
    by_id_parallel = {r.id: r.sample for r in parallel.records}
    assert by_id_serial == by_id_parallel  # same id -> same point, any schedule


@pytest.mark.parametrize("workers", [1, 4])
def test_parallel_worker_failures_are_isolated(workers):
    def sometimes_broken(config, sample):
        if sample.values[0] < 0.25:
            raise RuntimeError("injected fault")
        return ca.default_simulator(config, sample)

    config = make_config(max_samples=40, workers=workers, seed=12)
    result = ca.run_campaign(config, simulate_fn=sometimes_broken)
    assert result.failed > 0
    assert result.dispatched == 40
    assert len(result.records) + result.failed == result.dispatched
    surviving = {r.sample.values[0] for r in result.records}
    assert all(v >= 0.25 for v in surviving)


def test_parallel_stress_bookkeeping():
    # W=8 with randomized delays: every feedback lands exactly once.
    def jittery(config, sample):
        time.sleep((hash(sample.values) % 5) * 0.001)
        return ca.default_simulator(config, sample)

    config = make_config(
        sampler_name="mab", max_samples=60, workers=8, seed=42
    )
    result = ca.run_campaign(config, simulate_fn=jittery)
    assert result.dispatched == 60
    assert len(result.records) + result.failed == 60
    visits = np.array(result.snapshot["visits"])
    assert np.all(visits.sum(axis=1) == len(result.records))
    ids = [r.id for r in result.records]
    assert len(set(ids)) == len(ids)
    assert result.snapshot["completed"] == len(result.records)


def test_run_campaign_dispatches_on_worker_count():
    serial = ca.run_campaign(make_config(seed=1, max_samples=12))
    parallel = ca.run_campaign(make_config(seed=1, max_samples=12, workers=3))
    assert {r.id for r in serial.records} == {r.id for r in parallel.records}


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_artifacts_roundtrip(tmp_path):
    result = ca.run_campaign(make_config(max_samples=15, seed=8))
    paths = ca.write_artifacts(result, tmp_path)
    for p in paths.values():
        assert p.exists()

    loaded = ca.read_records(tmp_path)
    assert [semantic(r) for r in loaded] == [semantic(r) for r in result.records]
    assert loaded == list(result.records)

    summary = ca.read_summary(tmp_path)
    assert summary["config"] == result.config.describe()
    assert summary["totals"]["samples"] == 15
    assert summary["dispatched"] == 15

    snapshot = json.loads((tmp_path / ca.SNAPSHOT_JSON).read_text())
    assert snapshot == result.snapshot

    rebuilt = ca.read_result(tmp_path)
    assert rebuilt.config.describe() == result.config.describe()
    assert rebuilt.config.spec.names == result.config.spec.names
    assert rebuilt.records == result.records
    assert rebuilt.maximal == result.maximal
    assert rebuilt.snapshot == result.snapshot
    assert rebuilt.wall_seconds == result.wall_seconds
    assert (rebuilt.dispatched, rebuilt.failed) == (15, 0)


def test_jsonl_field_names_are_fixed(tmp_path):
    result = ca.run_campaign(make_config(max_samples=3))
    ca.write_artifacts(result, tmp_path)
    with (tmp_path / ca.RECORDS_JSONL).open() as fh:
        first = json.loads(fh.readline())
    assert tuple(first.keys()) == ca.RECORD_FIELDS


def test_csv_tables_partition_records(tmp_path):
    result = ca.run_campaign(make_config(max_samples=25, seed=4))
    ca.write_artifacts(result, tmp_path)

    def rows(name):
        with (tmp_path / name).open() as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == list(ca.RECORD_FIELDS)
            return list(reader)

    error_rows = rows(ca.ERROR_CSV)
    safe_rows = rows(ca.SAFE_CSV)
    assert len(error_rows) == len(result.error_table)
    assert len(safe_rows) == len(result.safe_table)
    assert len(error_rows) + len(safe_rows) == 25
    assert all(r["counterexample"] == "True" for r in error_rows)


def test_read_records_missing_dir(tmp_path):
    with pytest.raises(ConfigError, match="records"):
        ca.read_records(tmp_path / "nowhere")


# ---------------------------------------------------------------------------
# Coverage statistics over campaign results
# ---------------------------------------------------------------------------


def one_record_result(violated=True):
    config = make_config(max_samples=1)
    rho = (-1.0,) if violated else (1.0,)
    record = ca.SampleRecord(
        id=0, worker=0, t_dispatch=0.0, t_complete=1.0,
        sample=SampleVector((0.35, 0.5), (3, 5)),
        rho=rho, b=(violated,), is_counterexample=violated,
        termination=TERM_TIME_LIMIT, sim_seconds=0.1,
    )
    return ca.CampaignResult(
        config=config, records=(record,),
        maximal=((True,),) if violated else (),
        snapshot={}, wall_seconds=0.2, dispatched=1, failed=0,
    )


def test_coverage_stats_single_counterexample():
    stats = an.coverage_stats(one_record_result())
    assert stats.samples == 1 and stats.counterexamples == 1
    assert stats.distinct_combinations == 1
    assert stats.maximal_set_size == 1
    assert stats.bucket_histograms["u"][3] == 1
    assert stats.bucket_histograms["w"][5] == 1


def test_coverage_stats_empty_result_rejected():
    empty = ca.CampaignResult(
        config=make_config(), records=(), maximal=(), snapshot={},
        wall_seconds=0.0, dispatched=0, failed=0,
    )
    with pytest.raises(DomainError, match="no records"):
        an.coverage_stats(empty)


def test_coverage_stats_halton_visits_every_bucket():
    result = ca.run_campaign(make_config(sampler_name="halton", max_samples=1000))
    stats = an.coverage_stats(result)
    for histogram in stats.bucket_histograms.values():
        assert all(count > 0 for count in histogram)
    assert stats.has_ci
    assert stats.ci_lo <= stats.proportion <= stats.ci_hi


def test_coverage_stats_ci_only_for_random_like_samplers():
    halton = an.coverage_stats(
        ca.run_campaign(make_config(sampler_name="halton", max_samples=50))
    )
    mab = an.coverage_stats(
        ca.run_campaign(make_config(sampler_name="mab", max_samples=50))
    )
    assert halton.has_ci
    assert not mab.has_ci and mab.confidence is None
