"""Orchestrator tests: budget accounting, determinism, parallel/serial
equivalence, failure isolation, persistence, and coverage statistics."""

import csv
import dataclasses
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falsify import analysis as an
from falsify import campaign as ca
from falsify import rulebook as rb
from falsify import samplers as sa
from falsify import scenarios as sc
from falsify.errors import ConfigError, DomainError, FalsifyError
from falsify import monitor as mo
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


def test_config_rejects_an_infinite_wall_budget():
    with pytest.raises(ConfigError, match="max_wall_seconds must be finite"):
        make_config(max_samples=None, max_wall_seconds=math.inf)


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


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
def test_config_rejects_alpha_outside_the_open_unit_interval(alpha):
    with pytest.raises(ConfigError, match="alpha"):
        make_config(sampler_name="cross-entropy", alpha=alpha)


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


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("sampler", sa.SAMPLER_NAMES)
def test_campaign_maximal_is_the_sampler_set(sampler, workers):
    config = make_config(
        "intersection", adversaries=3, sampler_name=sampler,
        max_samples=100, workers=workers, seed=3,
    )
    result = ca.run_campaign(config)
    assert [list(m) for m in result.maximal] == result.snapshot["maximal"]
    # Brute force: the error table's vectors that nothing strictly dominates.
    book = config.rulebook
    vectors = {r.b for r in result.error_table}
    assert len(vectors) > 1
    assert set(result.maximal) == {
        b for b in vectors
        if not any(book.bits_strictly_dominates(a, b) for a in vectors)
    }


# ---------------------------------------------------------------------------
# The campaign's simulator: minima instead of a trajectory
# ---------------------------------------------------------------------------


def _equivalence_configs():
    """Every scenario id, the intersection at m=1..8, each with a spec of
    per-agent, joint and ego metrics at several thresholds."""
    scenarios = [sc.ScenarioConfig(sid) for sid in sc.scenario_ids(catalog_only=False)
                 if sid != "intersection"]
    scenarios += [sc.ScenarioConfig("intersection", adversaries=m) for m in range(1, 9)]
    for scen in scenarios:
        agents = sc.monitored_agents(scen)
        spec = mo.Specification(
            [mo.MinSeparation(a) for a in agents]
            + [mo.MinSeparation(agents[-1], threshold=0.75),
               mo.JointSeparation(agents, threshold=12.5),
               mo.JointSeparation(agents[:1], threshold=2.0),
               mo.MinSeparation(mo.EGO, threshold=1.0)]
        )
        yield make_config(scen.scenario_id, adversaries=scen.adversaries, spec=spec,
                          rulebook=rb.disconnected(len(spec)))


def test_campaign_path_matches_the_trajectory_path():
    """rho bytes, bits and termination of 1020 draws, campaign path against
    evaluate(spec, scenarios.simulate(...)): lower and upper bounds,
    midpoints, the known-unsafe fixture and uniform draws."""
    rng = np.random.default_rng(2024)
    draws = 0
    for config in _equivalence_configs():
        scen, space = config.scenario, config.space
        lo = [d.lo for d in space.dims]
        hi = [d.hi for d in space.dims]
        points = [lo, hi, [(a + b) / 2 for a, b in zip(lo, hi)]]
        if scen.adversaries == 1:  # the fixture is recorded at m=1
            points.append(sc.known_unsafe_values(scen))
        points += [rng.uniform(lo, hi).tolist() for _ in range(60 - len(points))]
        runner = ca._Runner(config)
        for values in points:
            sample = space.make_sample(values)
            kind, rho, termination, _, _ = runner.run(sample)
            traj = sc.simulate(scen, values)
            want = mo.evaluate(config.spec, traj)
            assert kind == "done"
            assert np.array(rho).tobytes() == want.tobytes(), (scen, values)
            assert termination == traj.termination
            draws += 1
    assert draws >= 1000


def test_default_simulator_keeps_minima_not_a_trajectory():
    config = make_config("intersection")
    values = sc.known_unsafe_values(config.scenario)
    run = ca.default_simulator(config, config.space.make_sample(values))
    traj = sc.simulate(config.scenario, values)
    assert isinstance(run, mo.SeparationMinima)
    assert run.agents == traj.agents and run.termination == traj.termination
    for agent in traj.agents:
        assert run.min_separation(agent) == traj.min_separation(agent)


def test_default_simulator_keeps_the_delay_floor():
    config = make_config(delay=0.05)
    sample = config.space.make_sample([0.35, 0.5])
    t0 = time.perf_counter()
    run = ca.default_simulator(config, sample)
    assert time.perf_counter() - t0 >= 0.05
    assert isinstance(run, mo.SeparationMinima)
    assert run.minima == ca.default_simulator(
        dataclasses.replace(config, delay=0.0), sample).minima


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


@pytest.mark.parametrize("scenario", ["1", "5", "7"])
def test_process_workers_return_the_inline_results(scenario):
    # Without a simulate_fn, W>1 runs on forked processes; the records
    # they send back must match the inline path's field for field.
    config = make_config(scenario, sampler_name="halton", max_samples=60)
    serial = ca.run_campaign(config)
    parallel = ca.run_campaign(dataclasses.replace(config, workers=2))
    assert [semantic(r) for r in parallel.records] == [
        semantic(r) for r in serial.records
    ]
    assert {r.worker for r in parallel.records} == {0, 1}
    assert (parallel.dispatched, parallel.failed) == (serial.dispatched, 0)
    assert set(parallel.maximal) == set(serial.maximal)


def _helpers_only(fate, coordinator_delay=0.002):
    """A default simulator that calls ``fate()`` on each helper's n-th sample,
    n counted per process, and pads each of the coordinator's samples by
    ``coordinator_delay`` seconds, so that a helper forked after the
    coordinator's first claims still gets samples."""
    coordinator = os.getpid()
    calls = []

    def simulate(config, sample):
        if os.getpid() == coordinator:
            time.sleep(coordinator_delay)
        else:
            calls.append(sample)
            fate(len(calls))
        return sc.simulate(config.scenario, sample)

    return simulate


def test_dead_worker_process_aborts_with_the_partial_result(monkeypatch):
    config = make_config("1", sampler_name="halton", max_samples=40, workers=2)

    def dies_on_its_second_sample(n):
        if n == 2:
            os._exit(1)

    monkeypatch.setattr(ca, "default_simulator", _helpers_only(dies_on_its_second_sample))
    with pytest.raises(ca.CampaignError, match=r"died while running sample (\d+)") as err:
        ca.run_campaign(config)
    lost = int(re.search(r"sample (\d+)", str(err.value)).group(1))
    partial = err.value.partial
    ids = {r.id for r in partial.records}
    # The helper's sample is lost; its first one, and whatever the
    # coordinator ran, are absorbed.
    assert set(range(lost)) <= ids and lost not in ids
    assert 1 in {r.worker for r in partial.records}
    assert len(ids) == len(partial.records) == partial.dispatched - 1
    assert multiprocessing.active_children() == []


def test_worker_processes_ignore_sigint(monkeypatch):
    # A Ctrl-C reaches the whole process group; only the coordinator acts on it.
    config = make_config("1", sampler_name="halton", max_samples=30, workers=2)

    def interrupts_itself(n):
        if n == 1:
            os.kill(os.getpid(), signal.SIGINT)

    monkeypatch.setattr(ca, "default_simulator", _helpers_only(interrupts_itself))
    result = ca.run_campaign(config)
    assert len(result.records) == 30 and result.failed == 0
    assert {r.worker for r in result.records} == {0, 1}  # the helper ran, and lived


def _watch_processes(monkeypatch, tmp_path):
    """Count forks and log the pid of each process that runs a sample.

    Returns (forks, runs): the pids that ``os.fork`` returned, and a
    function that reads back one pid per sample run.
    """
    log = tmp_path / "pids"
    log.touch()
    simulate, fork = ca.default_simulator, os.fork
    forks = []

    def logging_simulator(config, sample):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return simulate(config, sample)

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(ca, "default_simulator", logging_simulator)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks, lambda: [int(pid) for pid in log.read_text().split()]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sampler", ["halton", "uniform"])
def test_claiming_coordinator_is_worker_0_beside_w_minus_1_helpers(
        monkeypatch, tmp_path, sampler, workers):
    forks, runs = _watch_processes(monkeypatch, tmp_path)
    config = make_config("1", sampler_name=sampler, max_samples=40, workers=workers,
                         delay=0.002)
    result = ca.run_campaign(config)
    assert len(forks) == workers - 1
    pids = runs()
    assert set(pids) == {os.getpid(), *forks}  # every process ran samples
    assert pids.count(os.getpid()) == sum(r.worker == 0 for r in result.records)
    assert {r.worker for r in result.records} == set(range(workers))
    assert [r.id for r in result.records] == list(range(40))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("sampler", ["mab", "cross-entropy"])
def test_adaptive_samples_run_only_in_fed_helpers(monkeypatch, tmp_path, sampler):
    forks, runs = _watch_processes(monkeypatch, tmp_path)
    config = make_config("1", sampler_name=sampler, max_samples=40, workers=2)
    result = ca.run_campaign(config)
    assert len(forks) == 2
    pids = runs()
    assert len(pids) == 40 and set(pids) <= set(forks)
    assert [r.id for r in result.records] == list(range(40))
    assert multiprocessing.active_children() == []


def _ctrl_c_on_call(n, times=1):
    """A simulate_fn whose n-th call sends SIGINT to this process ``times`` times."""
    calls = []

    def simulate(config, sample):
        calls.append(sample)
        if len(calls) == n:
            for _ in range(times):
                os.kill(os.getpid(), signal.SIGINT)
        return sc.simulate(config.scenario, sample)

    return simulate


@pytest.mark.parametrize("workers", [1, 2])
def test_ctrl_c_finishes_the_samples_in_flight(workers):
    config = make_config("1", sampler_name="mab", max_samples=40, workers=workers)
    with pytest.raises(ca.CampaignInterrupted, match="interrupted after") as err:
        ca.run_campaign(config, simulate_fn=_ctrl_c_on_call(6))
    assert not isinstance(err.value, Exception)  # `except Exception` lets it by
    partial = err.value.partial
    ids = sorted(r.id for r in partial.records)
    assert ids == list(range(partial.dispatched)) and 5 in ids
    if workers == 1:
        assert partial.dispatched == 6
    # Every finished sample is in both the records and the sampler's state.
    assert partial.snapshot["completed"] == partial.snapshot["issued"] == len(ids)
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_a_second_ctrl_c_raises_at_once():
    config = make_config("1", max_samples=40)
    with pytest.raises(KeyboardInterrupt) as err:
        ca.run_campaign(config, simulate_fn=_ctrl_c_on_call(3, times=2))
    assert type(err.value) is KeyboardInterrupt
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_ctrl_c_keeps_a_callers_own_handler():
    seen = []
    previous = signal.signal(signal.SIGINT, lambda signum, frame: seen.append(signum))
    try:
        result = ca.run_campaign(make_config("1", max_samples=10),
                                 simulate_fn=_ctrl_c_on_call(3))
        assert seen == [signal.SIGINT] and len(result.records) == 10
    finally:
        signal.signal(signal.SIGINT, previous)


def test_worker_processes_exit_when_the_coordinator_end_closes():
    # A claiming helper (halton) finds out on its next answer; a fed one
    # (mab) waits for a task and reads EOF.  The coordinator is worker 0
    # of a claiming pool, so W=2 forks one helper there and two when fed.
    for sampler, helpers in (("halton", 1), ("mab", 2)):
        pool = ca._Pool(ca._Runner(
            make_config(sampler_name=sampler, max_samples=10**6, workers=2)))
        pool.start(forked=True)
        assert len(pool.helpers) == helpers, sampler
        for conn in pool.conns.values():
            conn.close()  # as the coordinator's death would
        for process in pool.helpers:
            process.join(timeout=10)
            assert process.exitcode == 0, sampler
    assert multiprocessing.active_children() == []


def test_dispatch_to_a_dead_worker_process_is_a_package_error():
    pool = ca._Pool(ca._Runner(make_config(sampler_name="mab", workers=2)))
    pool.start(forked=True)
    try:
        process = pool.helpers[0]
        process.kill()
        process.join(timeout=10)
        assert not process.is_alive()
        with pytest.raises(FalsifyError, match="worker 0 died before sample 0"):
            pool._feed(0)
        # Worker 1 was never fed; the drain must still hear it finish.
        drain = threading.Thread(target=pool.drain, daemon=True)
        drain.start()
        drain.join(timeout=10)
        assert not drain.is_alive()
    finally:
        pool.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("budget", [
    {"max_samples": 50},
    {"max_samples": None, "max_wall_seconds": 0.3},
])
@pytest.mark.parametrize("sampler", ["halton", "uniform"])
def test_claimed_ids_are_dense_over_dispatched_samples(sampler, budget):
    # Forked workers claim their own ids; the coordinator takes their count.
    config = make_config("1", sampler_name=sampler, workers=2, **budget)
    result = ca.run_campaign(config)
    assert [r.id for r in result.records] == list(range(result.dispatched))
    assert result.failed == 0
    assert result.snapshot["issued"] == result.snapshot["completed"] == result.dispatched
    if config.max_samples is not None:
        assert result.dispatched == 50
    else:
        assert result.dispatched > 0 and result.wall_seconds >= 0.3
    assert multiprocessing.active_children() == []


def test_claiming_threads_lose_no_update():
    # More claiming threads than cores, switching as often as the
    # interpreter allows: a claim that read the shared count without the
    # lock would hand out one id twice and skip another.
    config = make_config("1", sampler_name="halton", max_samples=300, workers=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = ca.run_campaign(config, simulate_fn=ca.default_simulator)
    finally:
        sys.setswitchinterval(interval)
    stream = sa.make_sampler("halton", config.space, config.seed)
    assert [r.id for r in result.records] == list(range(300)) == list(
        range(result.dispatched))
    assert [r.sample for r in result.records] == [stream.draw(i) for i in range(300)]
    assert result.snapshot["issued"] == result.snapshot["completed"] == 300


def test_ctrl_c_stops_claiming_worker_processes():
    config = make_config("1", sampler_name="halton", max_samples=None,
                         max_wall_seconds=30.0, workers=2)
    timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    try:
        with pytest.raises(ca.CampaignInterrupted) as err:
            ca.run_campaign(config)
    finally:
        timer.cancel()
    partial = err.value.partial
    assert partial.wall_seconds < 10
    ids = [r.id for r in partial.records]
    assert ids and ids == list(range(partial.dispatched))
    assert partial.snapshot["issued"] == partial.dispatched
    assert multiprocessing.active_children() == []
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_setup_does_not_import_multiprocessing():
    # Forking is set up inside the pool, so parsing a campaign costs a fresh
    # interpreter none of multiprocessing's imports.
    code = (
        "import json, sys\n"
        "import falsify, falsify.config\n"
        "from importlib import resources\n"
        "doc = resources.files('falsify.data').joinpath("
        "'experiments/sweep_scenario_1.json').read_text()\n"
        "falsify.config.parse_config(json.loads(doc))\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    src = Path(ca.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


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
    assert rebuilt.config.scenario == result.config.scenario
    assert rebuilt.config.spec.names == result.config.spec.names
    assert rebuilt.records == result.records
    assert rebuilt.maximal == result.maximal
    assert rebuilt.snapshot == result.snapshot
    assert rebuilt.wall_seconds == result.wall_seconds
    assert (rebuilt.dispatched, rebuilt.failed) == (15, 0)


def test_describe_carries_every_scenario_setting():
    # A ScenarioConfig field that describe() drops would be lost when a run
    # is saved, and report/compare would analyse a different scenario.
    scenario = make_config("intersection", adversaries=3).describe()["scenario"]
    names = {f.name for f in dataclasses.fields(sc.ScenarioConfig)}
    assert {"id" if n == "scenario_id" else n for n in names} == set(scenario)
    assert scenario == {"id": "intersection", "adversaries": 3}


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


def legacy_artifacts(result, out):
    """The tables and the record log as written before each record's lists
    were encoded once: ``to_json_dict`` and ``json.dumps`` per file."""
    for name, table in ((ca.ERROR_CSV, result.error_table),
                        (ca.SAFE_CSV, result.safe_table)):
        with (out / name).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ca.RECORD_FIELDS)
            for r in table:
                doc = r.to_json_dict()
                writer.writerow([
                    doc["id"], doc["worker"], doc["t_dispatch"], doc["t_complete"],
                    json.dumps(doc["values"]), json.dumps(doc["buckets"]),
                    json.dumps(doc["rho"]), json.dumps(doc["b"]),
                    doc["counterexample"], doc["termination"], doc["sim_seconds"],
                ])
    with (out / ca.RECORDS_JSONL).open("w") as fh:
        for r in result.records:
            fh.write(json.dumps(r.to_json_dict()) + "\n")


def test_artifact_tables_and_log_are_byte_identical_to_legacy(tmp_path):
    result = ca.run_campaign(make_config(
        "intersection", adversaries=3, sampler_name="mab", max_samples=60,
        rulebook=rb.disconnected(3),
    ))
    assert result.error_table and result.safe_table
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    ca.write_artifacts(result, tmp_path / "new")
    legacy_artifacts(result, tmp_path / "old")
    for name in (ca.ERROR_CSV, ca.SAFE_CSV, ca.RECORDS_JSONL):
        assert (tmp_path / "new" / name).read_bytes() == (
            tmp_path / "old" / name).read_bytes(), name


def legacy_encoded(record):
    """A record's CSV row and JSONL line as csv.writer and json.dumps write them."""
    doc = record.to_json_dict()
    row = io.StringIO()
    csv.writer(row).writerow([
        doc["id"], doc["worker"], doc["t_dispatch"], doc["t_complete"],
        json.dumps(doc["values"]), json.dumps(doc["buckets"]),
        json.dumps(doc["rho"]), json.dumps(doc["b"]),
        doc["counterexample"], doc["termination"], doc["sim_seconds"],
    ])
    return row.getvalue(), json.dumps(doc) + "\n"


@pytest.mark.parametrize("changes", [
    dict(t_dispatch=0, t_complete=1, sim_seconds=2),  # ints
    dict(t_dispatch=float("nan"), t_complete=float("inf"),
         sim_seconds=-float("inf")),
    dict(termination='odd, "quoted", ünïcode\n'),
    dict(id=True, worker=False),
    dict(termination="ünïcode"),
    # each character that csv.writer quotes, alone, and the empty field
    *(dict(termination=f"a{c}b") for c in ',"\r\n'),
    dict(termination=""),
    dict(rho=(-1.0,)),  # one-element lists are not quoted in the CSV row
])
def test_encoded_record_line_equals_json_dumps(changes):
    record = ca.SampleRecord(
        id=7, worker=1, t_dispatch=0.25, t_complete=0.5,
        sample=SampleVector((1.5, -0.0, 1e-300), (0, 3, 2)),
        rho=(-1.0, float("nan"), 2.5), termination="crash", sim_seconds=1e-4,
    )
    record = dataclasses.replace(record, **changes)
    row, line = ca._encoded(record)
    want_row, want_line = legacy_encoded(record)
    assert line.encode() == want_line.encode()
    assert row.encode() == want_row.encode()


# Floats that JSON or CSV spell apart from most: nan, the infinities, the
# zeros and the subnormals, beside any other float.
_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e16, 1e-5])
# Terminations that CSV writes as they are, ones rich in the characters it
# quotes, and any text at all.
_TERMINATIONS = (st.text(st.characters(blacklist_characters=',"\r\n'), min_size=1)
                 | st.text(st.sampled_from('a ü,"\r\n')) | st.text())


@st.composite
def _records(draw):
    """Records whose fields have their own types, or, in about half of them,
    ints and bools in the float and int slots."""
    mixed = draw(st.booleans())
    floats = _FLOATS | st.integers() | st.booleans() if mixed else _FLOATS
    ints = st.integers(0, 2**63) | st.booleans() if mixed else st.integers(0, 2**63)
    dims = draw(st.integers(1, 4))
    return ca.SampleRecord(
        id=draw(ints),
        worker=draw(ints),
        t_dispatch=draw(floats),
        t_complete=draw(floats),
        sample=SampleVector(
            tuple(draw(st.lists(floats, min_size=dims, max_size=dims))),
            tuple(draw(st.lists(ints, min_size=dims, max_size=dims))),
        ),
        rho=tuple(draw(st.lists(floats, min_size=1, max_size=4))),
        termination=draw(_TERMINATIONS),
        sim_seconds=draw(floats),
    )


@settings(max_examples=300)
@given(_records())
def test_encoded_equals_csv_writer_and_json_dumps(record):
    row, line = ca._encoded(record)
    want_row, want_line = legacy_encoded(record)
    assert row.encode() == want_row.encode()
    assert line.encode() == want_line.encode()


def test_read_records_missing_dir(tmp_path):
    with pytest.raises(ConfigError, match="records"):
        ca.read_records(tmp_path / "nowhere")


def test_record_verdict_is_derived_from_rho():
    record = ca.SampleRecord(
        id=0, worker=0, t_dispatch=0.0, t_complete=1.0,
        sample=SampleVector((0.35, 0.5), (3, 5)), rho=(1.0, -0.0, -2.0),
        termination=TERM_TIME_LIMIT, sim_seconds=0.1,
    )
    assert record.b == (False, False, True) and record.is_counterexample
    assert dataclasses.replace(record, rho=(0.0, 1.0, 2.0)).b == (False,) * 3
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(record, b=(True, True, True))


@pytest.mark.parametrize("changes", [
    {"b": [False, True]},
    {"b": [True]},
    {"counterexample": False},
    {"rho": [1.0, 1.0]},
])
def test_read_records_checks_the_verdict_against_rho(tmp_path, changes):
    doc = json.loads(json.dumps(one_record_result().records[0].to_json_dict()))
    doc["rho"], doc["b"] = [-1.0, 1.0], [True, False]
    (tmp_path / ca.RECORDS_JSONL).write_text(
        json.dumps(doc) + "\n" + json.dumps({**doc, **changes, "id": 1}) + "\n"
    )
    with pytest.raises(ConfigError, match=r"line 2: record 1: b and counterexample"):
        ca.read_records(tmp_path)


def test_read_records_names_the_file_and_line(tmp_path):
    result = ca.run_campaign(make_config(max_samples=5))
    ca.write_artifacts(result, tmp_path)
    path = tmp_path / ca.RECORDS_JSONL
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines)[:-40])
    with pytest.raises(ConfigError, match=r"records\.jsonl, line 5"):
        ca.read_records(tmp_path)
    del_key = json.loads(lines[2])
    del del_key["termination"]
    lines[2] = json.dumps(del_key) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=r"line 3: missing key 'termination'"):
        ca.read_records(tmp_path)


@pytest.mark.parametrize("name, text", [
    (ca.SUMMARY_JSON, "{"),
    (ca.SUMMARY_JSON, "{}"),
    (ca.SUMMARY_JSON, "[]"),
    (ca.SNAPSHOT_JSON, "{\"sampler\""),
])
def test_read_result_names_a_malformed_file(tmp_path, name, text):
    ca.write_artifacts(ca.run_campaign(make_config(max_samples=3)), tmp_path)
    (tmp_path / name).write_text(text)
    with pytest.raises(ConfigError, match=f"malformed .*{name}"):
        ca.read_result(tmp_path)


# ---------------------------------------------------------------------------
# Coverage statistics over campaign results
# ---------------------------------------------------------------------------


def one_record_result(violated=True):
    config = make_config(max_samples=1)
    rho = (-1.0,) if violated else (1.0,)
    record = ca.SampleRecord(
        id=0, worker=0, t_dispatch=0.0, t_complete=1.0,
        sample=SampleVector((0.35, 0.5), (3, 5)),
        rho=rho, termination=TERM_TIME_LIMIT, sim_seconds=0.1,
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


@pytest.mark.parametrize("name", sa.SAMPLER_NAMES)
def test_coverage_stats_attaches_an_interval_exactly_when_feedback_free(name):
    stats = an.coverage_stats(
        ca.run_campaign(make_config(sampler_name=name, max_samples=20))
    )
    assert stats.has_ci == sa.SAMPLERS[name].feedback_free
    assert (stats.confidence is not None) == sa.SAMPLERS[name].feedback_free
