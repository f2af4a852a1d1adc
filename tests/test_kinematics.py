"""Integrator unit tests: builder validation, rule behaviors, terminations,
backend equivalence, and motion invariants."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falsify import kinematics as kin
from falsify import scenarios as sc
from falsify.errors import DomainError

HAS_NUMBA = "numba" in kin.kernel_functions()


def stationary_obstacle(builder, name, pos):
    """Agent that never moves and never finishes (waypoint out of reach)."""
    return builder.add_waypoint_agent(
        name, pos, [(pos[0] + 1000.0, pos[1])], speed=0.0, cruise=0.0
    )


# ---------------------------------------------------------------------------
# SceneBuilder validation
# ---------------------------------------------------------------------------


def test_duplicate_agent_name_rejected():
    b = kin.SceneBuilder()
    b.add_lane_agent("ego", (0, 0), speed=5, goal_x=100)
    with pytest.raises(DomainError, match="duplicate"):
        b.add_lane_agent("ego", (5, 0), speed=5, goal_x=100)


def test_waypoint_agent_needs_waypoints():
    b = kin.SceneBuilder()
    with pytest.raises(DomainError, match="waypoint"):
        b.add_waypoint_agent("a", (0, 0), [], speed=5)


def test_waypoint_limit_enforced():
    b = kin.SceneBuilder()
    too_many = [(float(i), 0.0) for i in range(kin.MAX_WAYPOINTS + 1)]
    with pytest.raises(DomainError, match="at most"):
        b.add_waypoint_agent("a", (0, 0), too_many, speed=5)


def test_negative_speed_rejected():
    b = kin.SceneBuilder()
    with pytest.raises(DomainError):
        b.add_lane_agent("a", (0, 0), speed=-1, goal_x=100)


def test_lane_change_requires_lane_agent():
    b = kin.SceneBuilder()
    a = b.add_waypoint_agent("a", (0, 0), [(100, 0)], speed=5)
    t = b.add_lane_agent("t", (10, 0), speed=3, goal_x=100)
    with pytest.raises(DomainError, match="lane"):
        b.lane_change(a, t, trigger=10, to_y=3, clear_margin=5)


def test_rule_cannot_target_itself():
    b = kin.SceneBuilder()
    a = b.add_lane_agent("a", (0, 0), speed=5, goal_x=100)
    with pytest.raises(DomainError, match="own agent"):
        b.brake_near(a, a, trigger=10, decel=5)


def test_rule_unknown_index_rejected():
    b = kin.SceneBuilder()
    a = b.add_lane_agent("a", (0, 0), speed=5, goal_x=100)
    with pytest.raises(DomainError, match="unknown agent index"):
        b.brake_near(a, 7, trigger=10, decel=5)


def test_rule_count_limit():
    b = kin.SceneBuilder()
    a = b.add_lane_agent("a", (0, 0), speed=5, goal_x=100)
    t = b.add_lane_agent("t", (50, 0), speed=5, goal_x=100)
    for _ in range(kin.MAX_RULES):
        b.brake_near(a, t, trigger=10, decel=5)
    with pytest.raises(DomainError, match="too many rules"):
        b.brake_near(a, t, trigger=10, decel=5)


def test_empty_scene_rejected():
    with pytest.raises(DomainError, match="at least one agent"):
        kin.SceneBuilder().build()


def test_run_scene_argument_validation():
    b = kin.SceneBuilder()
    b.add_lane_agent("a", (0, 0), speed=5, goal_x=100)
    scene = b.build()
    with pytest.raises(DomainError, match="dt"):
        kin.run_scene(scene, dt=0.0)
    with pytest.raises(DomainError, match="max_frames"):
        kin.run_scene(scene, max_frames=0)
    with pytest.raises(DomainError, match="backend"):
        kin.run_scene(scene, backend="fortran")


# ---------------------------------------------------------------------------
# Terminations
# ---------------------------------------------------------------------------


def test_stationary_pair_constant_separation():
    # Zero dynamics: both parked 10 m apart, so every frame measures 10 m
    # and the run exhausts the frame budget.
    b = kin.SceneBuilder()
    stationary_obstacle(b, "ego", (0.0, 0.0))
    stationary_obstacle(b, "other", (10.0, 0.0))
    pos, heading, speed, code = kin.run_scene(b.build(), dt=0.1, max_frames=300)
    assert code == kin.CODE_TIME_LIMIT
    assert pos.shape == (300, 2, 2)
    sep = np.hypot(*(pos[:, 1] - pos[:, 0]).T)
    assert np.all(sep == 10.0)
    assert np.all(speed == 0.0)


def test_head_on_crash_frame():
    # Closing at 10 m/s from 60 m with dt=0.1 touches the 0.5 m crash
    # distance 6 seconds in, i.e. frame 60 give or take one step.
    b = kin.SceneBuilder()
    b.add_waypoint_agent("ego", (0.0, 0.0), [(200.0, 0.0)], speed=5.0)
    b.add_waypoint_agent("oncoming", (60.0, 0.0), [(-200.0, 0.0)], speed=5.0)
    pos, _, _, code = kin.run_scene(b.build(), dt=0.1, max_frames=300)
    assert code == kin.CODE_CRASH
    crash_frame = pos.shape[0] - 1
    assert abs(crash_frame - 60) <= 1


def test_lane_agent_clears_at_goal():
    b = kin.SceneBuilder()
    b.add_lane_agent("a", (0.0, 0.0), speed=10.0, goal_x=4.9)
    pos, _, _, code = kin.run_scene(b.build(), dt=0.1, max_frames=300)
    assert code == kin.CODE_CLEARED
    assert pos[-1, 0, 0] >= 4.9
    assert pos.shape[0] < 300


def test_waypoint_agent_clears_on_capture():
    b = kin.SceneBuilder()
    b.add_waypoint_agent("a", (0.0, 0.0), [(10.0, 0.0)], speed=5.0)
    pos, _, _, code = kin.run_scene(b.build(), dt=0.1, max_frames=300)
    assert code == kin.CODE_CLEARED
    # Done fires on entering the capture radius of the final waypoint.
    assert 10.0 - kin.CAPTURE_RADIUS <= pos[-1, 0, 0] <= 10.0


# ---------------------------------------------------------------------------
# Rule behaviors
# ---------------------------------------------------------------------------


def follower_and_obstacle(rule=None):
    b = kin.SceneBuilder()
    ego = b.add_lane_agent("ego", (0.0, 0.0), speed=10.0, goal_x=200.0)
    obs = stationary_obstacle(b, "obs", (40.0, 0.0))
    if rule is not None:
        rule(b, ego, obs)
    return b.build()


def test_brake_near_prevents_crash():
    crash_scene = follower_and_obstacle()
    _, _, _, code = kin.run_scene(crash_scene)
    assert code == kin.CODE_CRASH

    safe_scene = follower_and_obstacle(
        lambda b, ego, obs: b.brake_near(ego, obs, trigger=20.0, decel=6.0)
    )
    pos, _, speed, code = kin.run_scene(safe_scene)
    assert code == kin.CODE_TIME_LIMIT
    gaps = np.hypot(*(pos[:, 1] - pos[:, 0]).T)
    # From 10 m/s at 6 m/s^2 the stopping distance is ~8.3 m, well inside
    # the 20 m trigger, so the follower halts clear of the obstacle.
    assert gaps.min() > 10.0
    assert speed[-1, 0] == 0.0


def test_brake_ahead_only_for_obstacles_in_corridor():
    def corridor_rule(b, ego, obs):
        b.brake_ahead(ego, obs, trigger=25.0, decel=6.0, corridor=3.0)

    # Directly ahead: braking engages and the follower stops short.
    pos, _, speed, code = kin.run_scene(follower_and_obstacle(corridor_rule))
    assert code == kin.CODE_TIME_LIMIT
    assert np.hypot(*(pos[:, 1] - pos[:, 0]).T).min() > 5.0

    # Same distance but 4 m off to the side (outside the 3 m corridor):
    # no braking at all, the follower sails past at cruise speed.
    b = kin.SceneBuilder()
    ego = b.add_lane_agent("ego", (0.0, 0.0), speed=10.0, goal_x=200.0)
    obs = stationary_obstacle(b, "obs", (40.0, 4.0))
    b.brake_ahead(ego, obs, trigger=25.0, decel=6.0, corridor=3.0)
    pos, _, speed, code = kin.run_scene(b.build())
    assert np.all(speed[:, 0] == 10.0)
    assert pos[-1, 0, 0] > 40.0

    # Obstacle behind the heading direction is ignored too.
    b = kin.SceneBuilder()
    ego = b.add_lane_agent("ego", (0.0, 0.0), speed=10.0, goal_x=50.0)
    obs = stationary_obstacle(b, "obs", (-10.0, 0.0))
    b.brake_ahead(ego, obs, trigger=25.0, decel=6.0, corridor=3.0)
    _, _, speed, code = kin.run_scene(b.build())
    assert np.all(speed[:, 0] == 10.0)


def test_wait_until_near_releases_on_approach_and_latches():
    b = kin.SceneBuilder()
    ego = b.add_lane_agent("ego", (-50.0, 0.0), speed=10.0, goal_x=500.0)
    walker = b.add_waypoint_agent(
        "walker", (0.0, 0.0), [(0.0, 100.0)], speed=0.0, cruise=2.0, accel=2.0
    )
    b.wait_until_near(walker, ego, trigger=20.0)
    pos, _, speed, code = kin.run_scene(b.build(), max_frames=120)
    moving = np.nonzero(speed[:, 1] > 0.0)[0]
    assert moving.size > 0
    # Ego covers the 30 m to the 20 m trigger ring in ~3 s; the walker's
    # first motion shows up within a frame or two of that.
    assert 31 <= moving[0] <= 33
    # Latched: once released it keeps walking even as ego drives away.
    assert np.all(speed[moving[0]:, 1] > 0.0)


def test_boost_on_lateral_swaps_target_speed():
    b = kin.SceneBuilder()
    watcher = b.add_lane_agent("watcher", (0.0, 0.0), speed=5.0, goal_x=1e6)
    mover = b.add_waypoint_agent("mover", (20.0, -3.0), [(20.0, 10.0)], speed=2.0)
    b.boost_on_lateral(watcher, mover, offset_threshold=1.0, boost_speed=12.0,
                       ref_y=-3.0)
    _, _, speed, _ = kin.run_scene(b.build(), max_frames=200)
    # Holds cruise until the mover drifts >1 m off its reference lane, then
    # accelerates to the boosted speed.
    assert np.all(speed[:5, 0] == 5.0)
    assert speed[-1, 0] == 12.0


def test_lane_change_swerves_and_returns():
    b = kin.SceneBuilder()
    ego = b.add_lane_agent("ego", (0.0, -3.0), speed=10.0, goal_x=120.0)
    lead = b.add_lane_agent("lead", (15.0, -3.0), speed=3.0, goal_x=120.0)
    b.lane_change(ego, lead, trigger=10.0, to_y=3.0, clear_margin=5.0)
    pos, _, _, code = kin.run_scene(b.build(), max_frames=300)
    assert code != kin.CODE_CRASH
    ego_y = pos[:, 0, 1]
    assert ego_y.max() > 2.0          # reached the passing lane
    assert abs(ego_y[-1] - (-3.0)) < 0.5  # merged back afterwards
    # And it overtook: final ego x is ahead of the lead.
    assert pos[-1, 0, 0] > pos[-1, 1, 0]


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def rich_scene():
    """One scene exercising every rule type and both steering modes."""
    b = kin.SceneBuilder()
    ego = b.add_lane_agent("ego", (0.0, -3.0), speed=9.0, goal_x=140.0)
    lead = b.add_lane_agent("lead", (18.0, -3.0), speed=4.0, goal_x=140.0)
    blocker = b.add_lane_agent("blocker", (45.0, 3.0), speed=2.0, goal_x=140.0)
    walker = b.add_waypoint_agent(
        "walker", (60.0, -9.0), [(60.0, 9.0)], speed=0.0, cruise=1.5, accel=2.0
    )
    b.lane_change(ego, lead, trigger=12.0, to_y=3.0, clear_margin=6.0)
    b.brake_near(ego, blocker, trigger=10.0, decel=6.0)
    b.brake_ahead(ego, walker, trigger=15.0, decel=8.0, corridor=4.0)
    b.boost_on_lateral(lead, ego, offset_threshold=1.0, boost_speed=11.0,
                       ref_y=-3.0)
    b.wait_until_near(walker, ego, trigger=25.0)
    return b.build()


def oracle(scene, dt=0.1, max_frames=300):
    """The array kernel run uncompiled: the reference for every backend."""
    return kin._run_arrays(kin._integrate_impl, scene, dt, max_frames)


def assert_bit_identical(got, want):
    assert got[3] == want[3]
    for x, y in zip(got[:3], want[:3]):
        assert x.dtype == y.dtype == np.float64
        assert np.array_equal(x, y)
        assert x.tobytes() == y.tobytes()  # signs of zero too


def test_python_kernel_matches_oracle_on_rich_scene():
    for dt, max_frames in ((0.1, 300), (0.05, 400), (0.25, 7)):
        assert_bit_identical(
            kin.run_scene(rich_scene(), dt=dt, max_frames=max_frames,
                          backend="python"),
            oracle(rich_scene(), dt, max_frames),
        )


@pytest.mark.parametrize("sid", sc.scenario_ids(catalog_only=False))
def test_python_kernel_matches_oracle_on_known_unsafe(sid):
    cfg = sc.ScenarioConfig(sid)
    scene = sc.build_scene(cfg, sc.known_unsafe_values(cfg))
    assert_bit_identical(
        kin.run_scene(scene, dt=cfg.dt, max_frames=cfg.max_frames,
                      backend="python"),
        oracle(scene, cfg.dt, cfg.max_frames),
    )


def test_python_kernel_matches_oracle_on_intersection_draws():
    cfg = sc.ScenarioConfig("intersection", adversaries=5)
    bindings = sc.feature_bindings(cfg)
    rng = np.random.default_rng(5)
    for _ in range(24):
        scene = sc.build_scene(cfg, [rng.uniform(f.lo, f.hi) for f in bindings])
        assert_bit_identical(
            kin.run_scene(scene, dt=cfg.dt, max_frames=cfg.max_frames,
                          backend="python"),
            oracle(scene, cfg.dt, cfg.max_frames),
        )


def test_same_backend_is_deterministic():
    a = kin.run_scene(rich_scene())
    b = kin.run_scene(rich_scene())
    assert a[3] == b[3]
    for x, y in zip(a[:3], b[:3]):
        assert np.array_equal(x, y)


@pytest.mark.skipif(not HAS_NUMBA, reason="compiled backend not installed")
def test_backends_bit_identical():
    py = kin.run_scene(rich_scene(), backend="python")
    nb = kin.run_scene(rich_scene(), backend="numba")
    assert py[3] == nb[3]
    for x, y in zip(py[:3], nb[:3]):
        assert np.array_equal(x, y)  # exact, not approximate


def test_env_flag_parsing(monkeypatch):
    for off in ("0", "false", "No", "OFF"):
        monkeypatch.setenv(kin.ENV_FLAG, off)
        assert not kin.numba_requested()
    for on in ("1", "true", "anything"):
        monkeypatch.setenv(kin.ENV_FLAG, on)
        assert kin.numba_requested()
    monkeypatch.delenv(kin.ENV_FLAG, raising=False)
    assert kin.numba_requested()


def test_env_flag_selects_python_backend():
    # The flag is read at import time, so check it in a fresh interpreter.
    env = dict(os.environ, **{kin.ENV_FLAG: "0"})
    out = subprocess.run(
        [sys.executable, "-c",
         "from falsify import kinematics as k; print(k.active_backend())"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "python"


# ---------------------------------------------------------------------------
# Motion invariants (property-based)
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def scenes(draw):
    b = kin.SceneBuilder()
    n = draw(st.integers(min_value=1, max_value=4))
    coord = st.floats(min_value=-80, max_value=80)
    spd = st.floats(min_value=0, max_value=15)
    for i in range(n):
        pos = (draw(coord), draw(coord))
        if draw(st.booleans()):
            b.add_lane_agent(f"a{i}", pos, speed=draw(spd),
                             goal_x=draw(st.floats(min_value=50, max_value=200)))
        else:
            wps = [(draw(coord), draw(coord))
                   for _ in range(draw(st.integers(1, 3)))]
            b.add_waypoint_agent(f"a{i}", pos, wps, speed=draw(spd),
                                 cruise=draw(spd))
    # Sprinkle in a few rules between distinct agents.
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, n - 1))
        if a == t:
            continue
        kind = draw(st.integers(0, 3))
        if kind == 0:
            b.brake_near(a, t, trigger=draw(st.floats(1, 30)),
                         decel=draw(st.floats(1, 10)))
        elif kind == 1:
            b.brake_ahead(a, t, trigger=draw(st.floats(1, 30)),
                          decel=draw(st.floats(1, 10)),
                          corridor=draw(st.floats(0.5, 6)))
        elif kind == 2:
            b.wait_until_near(a, t, trigger=draw(st.floats(0, 30)))
        else:
            b.boost_on_lateral(a, t, offset_threshold=draw(st.floats(0.5, 5)),
                               boost_speed=draw(st.floats(0, 15)),
                               ref_y=draw(st.floats(-10, 10)))
    return b.build()


@given(scenes())
@settings(max_examples=60, deadline=None)
def test_motion_invariants(scene):
    max_frames = 60
    dt = 0.1
    pos, heading, speed, code = kin.run_scene(scene, dt=dt, max_frames=max_frames)
    frames = pos.shape[0]

    assert 1 <= frames <= max_frames
    assert code in (kin.CODE_TIME_LIMIT, kin.CODE_CRASH, kin.CODE_CLEARED)
    # The time-limit code means exactly "ran out of frames".
    if frames < max_frames:
        assert code != kin.CODE_TIME_LIMIT
    if code == kin.CODE_TIME_LIMIT:
        assert frames == max_frames

    assert np.all(np.isfinite(pos)) and np.all(np.isfinite(heading))
    assert np.all(speed >= 0.0)

    if frames > 1:
        step = np.hypot(*(pos[1:] - pos[:-1]).transpose(2, 0, 1))
        # Each step is exactly that frame's recorded speed * dt.
        assert np.allclose(step, speed[1:] * dt, rtol=1e-9, atol=1e-12)
        assert step.max() <= speed.max() * dt + 1e-9


@given(scenes())
@settings(max_examples=80, deadline=None)
def test_python_kernel_matches_oracle_property(scene):
    assert_bit_identical(
        kin.run_scene(scene, dt=0.1, max_frames=120, backend="python"),
        oracle(scene, 0.1, 120),
    )


@pytest.mark.skipif(not HAS_NUMBA, reason="compiled backend not installed")
@given(scenes())
@settings(max_examples=40, deadline=None)
def test_backend_equivalence_property(scene):
    py = kin.run_scene(scene, dt=0.1, max_frames=60, backend="python")
    nb = kin.run_scene(scene, dt=0.1, max_frames=60, backend="numba")
    assert py[3] == nb[3]
    for x, y in zip(py[:3], nb[:3]):
        assert np.array_equal(x, y)
