"""Scenario catalog tests: construction, fixtures, determinism, the timing
contract of the campaign simulator's delay floor, and a closed-form safe
case."""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from falsify import kinematics as kin
from falsify import monitor as mo
from falsify import rulebook as rb
from falsify import scenarios as sc
from falsify.campaign import CampaignConfig, default_simulator
from falsify.errors import ConfigError


ALL_IDS = sc.scenario_ids(catalog_only=False)
CATALOG_IDS = sc.scenario_ids()


def mid_values(cfg):
    return [(f.lo + f.hi) / 2.0 for f in sc.feature_bindings(cfg)]


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def test_catalog_has_eight_entries():
    cat = sc.list_scenarios()
    assert len(cat) == 8
    assert [e["id"] for e in cat] == list(CATALOG_IDS)
    for e in cat:
        assert e["description"]
        assert e["agents"][0] == mo.EGO
        for f in e["features"]:
            assert f["lo"] < f["hi"]


def test_synthetic_landscapes_not_in_catalog():
    assert "band" not in CATALOG_IDS
    assert "two_region" not in CATALOG_IDS
    assert {"band", "two_region"} < set(ALL_IDS)


def test_scenario_6_has_pedestrian():
    entry = next(e for e in sc.list_scenarios() if e["id"] == "6")
    assert "ped" in entry["agents"]


def test_scenario_3_ego_performs_lane_change():
    cfg = sc.ScenarioConfig("3")
    traj = sc.simulate(cfg, mid_values(cfg))
    ego_y = traj.positions[:, traj.agent_index(mo.EGO), 1]
    assert ego_y[0] == -3.0
    assert ego_y.max() > 2.0  # crossed into the left lane to pass


def test_scenario_6_pedestrian_crosses():
    cfg = sc.ScenarioConfig("6")
    traj = sc.simulate(cfg, mid_values(cfg))
    ped_y = traj.positions[:, traj.agent_index("ped"), 1]
    assert ped_y[0] < -6.0
    assert ped_y.max() > ped_y[0] + 1.0  # started walking across


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="band"):
        sc.ScenarioConfig("99")


def test_adversary_count_validation():
    with pytest.raises(ConfigError):
        sc.ScenarioConfig("1", adversaries=2)
    with pytest.raises(ConfigError):
        sc.ScenarioConfig("intersection", adversaries=0)
    with pytest.raises(ConfigError):
        sc.ScenarioConfig("intersection", adversaries=9)
    cfg = sc.ScenarioConfig("intersection", adversaries=5)
    assert len(sc.feature_bindings(cfg)) == 15  # three features per adversary
    assert len(sc.monitored_agents(cfg)) == 5


MONITORED = [
    ("1", 1, ("adv0",)),
    ("2", 1, ("adv0",)),
    ("3", 1, ("adv0",)),
    ("4", 1, ("adv0",)),
    ("5", 1, ("adv0", "adv1")),
    ("6", 1, ("ped",)),
    ("7", 1, ("adv0", "ped")),
    ("intersection", 1, ("adv0",)),
    ("intersection", 8, tuple(f"adv{i}" for i in range(8))),
    ("band", 1, ("probe",)),
    ("two_region", 1, ("probe",)),
]


def test_monitored_pins_cover_every_scenario():
    assert {sid for sid, _, _ in MONITORED} == set(ALL_IDS)


@pytest.mark.parametrize("sid, adversaries, agents", MONITORED)
def test_monitored_agents_are_pinned(sid, adversaries, agents):
    cfg = sc.ScenarioConfig(sid, adversaries=adversaries)
    assert sc.monitored_agents(cfg) == agents


@pytest.mark.parametrize("sid", ALL_IDS)
def test_builder_agents_do_not_depend_on_values(sid):
    cfg = sc.ScenarioConfig(sid)
    lows = [f.lo for f in sc.feature_bindings(cfg)]
    points = (lows, mid_values(cfg), sc.known_unsafe_values(cfg))
    agents = {sc.build_scene(cfg, values).agents for values in points}
    assert agents == {(mo.EGO,) + sc.monitored_agents(cfg)}


def test_bind_values_length_mismatch():
    cfg = sc.ScenarioConfig("1")
    with pytest.raises(ConfigError, match="needs 4 feature values"):
        sc.bind_values(cfg, [1.0, 2.0])


def test_default_feature_space_matches_bindings():
    cfg = sc.ScenarioConfig("5")
    space = sc.default_feature_space(cfg)
    assert space.names == tuple(f.name for f in sc.feature_bindings(cfg))
    assert space.bucket_count == 10


def test_default_specification_names():
    cfg = sc.ScenarioConfig("7")
    spec = sc.default_specification(cfg)
    assert spec.names == tuple(
        f"min_separation[{a}]" for a in sc.monitored_agents(cfg)
    )


# ---------------------------------------------------------------------------
# Known-unsafe fixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sid", ALL_IDS)
def test_known_unsafe_fixture_falsifies(sid):
    cfg = sc.ScenarioConfig(sid)
    values = sc.known_unsafe_values(cfg)
    traj = sc.simulate(cfg, values)
    rho = mo.evaluate(sc.default_specification(cfg), traj)
    assert rho.min() < 0.0
    # Stored robustness was measured by the same pipeline; it must agree.
    stored = sc.load_known_unsafe(sid)["rho"]
    assert np.allclose(rho, stored, rtol=0, atol=1e-12)


def test_refresh_fixtures_search_finds_the_band(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "refresh_fixtures.py"
    spec = importlib.util.spec_from_file_location("refresh_fixtures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "GRID_BUDGET", 16)
    entry = script.search(sc.ScenarioConfig("band"))
    assert entry["grid_points_per_dim"] == 4
    assert min(entry["rho"]) < 0
    assert sc.band_unsafe(entry["values"]["u"])


def test_fixture_lookup_errors():
    with pytest.raises(ConfigError, match="no known-unsafe fixture"):
        sc.load_known_unsafe("nope")
    # The intersection fixture was recorded with one adversary; asking for
    # more features than it stores is an error, not a silent KeyError.
    with pytest.raises(ConfigError, match="lacks features"):
        sc.known_unsafe_values(sc.ScenarioConfig("intersection", adversaries=3))


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sid", CATALOG_IDS)
def test_simulation_deterministic(sid):
    cfg = sc.ScenarioConfig(sid)
    values = mid_values(cfg)
    a = sc.simulate(cfg, values)
    b = sc.simulate(cfg, values)
    assert a.termination == b.termination
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.speeds, b.speeds)


# ---------------------------------------------------------------------------
# Closed-form safe case for scenario 1
# ---------------------------------------------------------------------------


def test_scenario_1_fast_turner_is_safe():
    # The adversary turns across from 15 m away at 12 m/s: its whole path to
    # well past the conflict point (~30 m) takes under 3 s.  The ego needs
    # (55-3)/4 = 13 s to reach the crossing, so the two are never close and
    # the clearance metric stays positive.
    cfg = sc.ScenarioConfig("1")
    values = {"ego_speed": 4.0, "ego_distance": 55.0,
              "adv_speed": 12.0, "adv_distance": 15.0}
    ordered = [values[f.name] for f in sc.feature_bindings(cfg)]
    traj = sc.simulate(cfg, ordered)
    rho = mo.evaluate(sc.default_specification(cfg), traj)
    assert rho.min() > 0.0


# ---------------------------------------------------------------------------
# Synthetic landscapes: simulated sign matches the analytic predicate
# ---------------------------------------------------------------------------


def test_band_landscape_matches_predicate():
    cfg = sc.ScenarioConfig("band")
    spec = sc.default_specification(cfg)
    for u in np.linspace(0.0, 0.999, 40):
        rho = mo.evaluate(spec, sc.simulate(cfg, [u, 0.5]))
        assert (rho.min() < 0) == sc.band_unsafe(u), u
        assert rho.min() in (-1.0, 1.0)


def test_two_region_landscape_matches_predicate():
    cfg = sc.ScenarioConfig("two_region")
    spec = sc.default_specification(cfg)
    rng = np.random.default_rng(3)
    for u, w in rng.uniform(0, 1, size=(60, 2)):
        rho = mo.evaluate(spec, sc.simulate(cfg, [u, w]))
        assert (rho.min() < 0) == sc.two_region_unsafe(u, w), (u, w)


# ---------------------------------------------------------------------------
# Unsafe-region mass stays in the tuned range
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sid", CATALOG_IDS)
def test_unsafe_fraction_in_band(sid):
    # The feature ranges were tuned so uniform sampling hits the unsafe
    # region 5-20% of the time; allow slack for a 200-sample estimate.
    cfg = sc.ScenarioConfig(sid)
    space = sc.default_feature_space(cfg)
    spec = sc.default_specification(cfg)
    lo = np.array([d.lo for d in space.dims])
    hi = np.array([d.hi for d in space.dims])
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(200):
        rho = mo.evaluate(spec, sc.simulate(cfg, rng.uniform(lo, hi)))
        hits += bool(rho.min() < 0)
    assert 0.02 <= hits / 200 <= 0.35, hits


# ---------------------------------------------------------------------------
# Delayed-simulator contract
# ---------------------------------------------------------------------------


def delayed(delay):
    """A band-scenario campaign config whose simulator keeps a delay floor."""
    cfg = sc.ScenarioConfig("band")
    spec = sc.default_specification(cfg)
    return CampaignConfig(
        space=sc.default_feature_space(cfg), scenario=cfg, spec=spec,
        rulebook=rb.disconnected(len(spec)), max_samples=1, delay=delay,
    )


def test_delay_zero_identical():
    config = delayed(0.0)
    sample = config.space.make_sample([0.35, 0.5])
    a = sc.simulate_minima(config.scenario, sample)
    b = default_simulator(config, sample)
    assert a.termination == b.termination
    assert a.agents == b.agents and a.minima == b.minima


def test_delay_duration_contract():
    config = delayed(0.1)
    sample = config.space.make_sample([0.1, 0.5])
    t0 = time.perf_counter()
    default_simulator(config, sample)
    elapsed = time.perf_counter() - t0
    assert 0.1 <= elapsed <= 0.1 + 0.08


def test_delay_additive_serial():
    config = delayed(0.05)
    sample = config.space.make_sample([0.7, 0.5])
    t0 = time.perf_counter()
    for _ in range(10):
        default_simulator(config, sample)
    assert time.perf_counter() - t0 >= 0.5


def test_negative_delay_rejected():
    with pytest.raises(ConfigError, match="delay"):
        delayed(-0.1)


# ---------------------------------------------------------------------------
# Trajectory bookkeeping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sid", CATALOG_IDS)
def test_trajectory_metadata(sid):
    cfg = sc.ScenarioConfig(sid)
    traj = sc.simulate(cfg, mid_values(cfg))
    assert traj.frame_count <= cfg.max_frames
    assert traj.termination in mo.TERMINATIONS
    if traj.frame_count < cfg.max_frames:
        assert traj.termination != mo.TERM_TIME_LIMIT
    assert traj.agents[0] == mo.EGO
    assert np.all(traj.speeds >= 0.0)


def test_terminations_are_indexed_by_kernel_code():
    assert mo.TERMINATIONS[kin.CODE_TIME_LIMIT] == mo.TERM_TIME_LIMIT
    assert mo.TERMINATIONS[kin.CODE_CRASH] == mo.TERM_CRASH
    assert mo.TERMINATIONS[kin.CODE_CLEARED] == mo.TERM_CLEARED
