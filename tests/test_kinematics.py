"""Integrator unit tests: builder validation, rule behaviors, terminations,
bit identity with the reference integrator, and motion invariants."""

import collections
import dataclasses
import functools
import inspect
import itertools
import linecache
import math
import traceback
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from kinematics_oracle import oracle

from falsify import kinematics as kin
from falsify import scenarios as sc
from falsify.errors import DomainError


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


def builder_with_two_lane_agents():
    b = kin.SceneBuilder()
    b.add_lane_agent("ego", (0, 0), speed=5, goal_x=100)
    b.add_lane_agent("lead", (20, 0), speed=3, goal_x=100)
    return b


def add_agent(call, **changed):
    def run(b):
        if call == "lane":
            args = dict(name="a", pos=(0.0, 0.0), speed=5.0, goal_x=100.0, cruise=5.0,
                        accel=3.0)
            b.add_lane_agent(**{**args, **changed})
        else:
            args = dict(name="a", pos=(0.0, 0.0), waypoints=[(50.0, 0.0)], speed=5.0,
                        cruise=5.0, accel=3.0)
            b.add_waypoint_agent(**{**args, **changed})
    return run


def add_rule(call, **changed):
    defaults = {
        "brake_near": dict(trigger=10.0, decel=5.0),
        "brake_ahead": dict(trigger=10.0, decel=5.0, corridor=2.0),
        "wait_until_near": dict(trigger=10.0),
        "boost_on_lateral": dict(offset_threshold=1.0, boost_speed=9.0, ref_y=0.0),
        "lane_change": dict(trigger=10.0, to_y=3.0, clear_margin=2.0),
    }[call]
    return lambda b: getattr(b, call)(0, 1, **{**defaults, **changed})


NAN, INF = math.nan, math.inf
BAD_VALUES = [
    *(add_agent("lane", speed=v) for v in (NAN, INF, -1.0)),
    *(add_agent("lane", cruise=v) for v in (NAN, INF, -1.0)),
    *(add_agent("lane", accel=v) for v in (NAN, INF, 0.0, -1.0)),
    *(add_agent(m, pos=p) for m in ("lane", "waypoint")
      for p in ((NAN, 0.0), (0.0, INF), (-INF, 0.0))),
    *(add_agent("waypoint", waypoints=[(10.0, 0.0), w]) for w in ((NAN, 0.0), (0.0, INF))),
    add_agent("lane", goal_x=NAN),
    *(add_rule("brake_near", trigger=v) for v in (NAN, INF, 0.0)),
    *(add_rule("brake_near", decel=v) for v in (NAN, INF, 0.0)),
    *(add_rule("brake_ahead", trigger=v) for v in (NAN, INF, 0.0)),
    *(add_rule("brake_ahead", decel=v) for v in (NAN, INF, -1.0)),
    *(add_rule("brake_ahead", corridor=v) for v in (NAN, INF, 0.0)),
    *(add_rule("wait_until_near", trigger=v) for v in (NAN, INF, -1.0)),
    *(add_rule("boost_on_lateral", offset_threshold=v) for v in (NAN, INF, 0.0)),
    *(add_rule("boost_on_lateral", boost_speed=v) for v in (NAN, INF, -1.0)),
    *(add_rule("boost_on_lateral", ref_y=v) for v in (NAN, INF, -INF)),
    *(add_rule("lane_change", trigger=v) for v in (NAN, INF, 0.0)),
    *(add_rule("lane_change", to_y=v) for v in (NAN, INF, -INF)),
    *(add_rule("lane_change", clear_margin=v) for v in (NAN, INF, -1.0)),
]


@pytest.mark.parametrize("add", BAD_VALUES)
def test_builder_rejects_nan_infinite_and_out_of_range_values(add):
    b = builder_with_two_lane_agents()
    with pytest.raises(DomainError):
        add(b)


def test_builder_keeps_an_infinite_goal_and_zero_wait_trigger():
    b = builder_with_two_lane_agents()
    b.add_lane_agent("far", (0.0, 6.0), speed=0.0, goal_x=math.inf)
    b.wait_until_near(0, 1, trigger=0.0)
    b.lane_change(0, 1, trigger=10.0, to_y=3.0, clear_margin=0.0)
    assert b.build().goal_x[-1] == math.inf


@pytest.mark.parametrize("cfg", [
    *(sc.ScenarioConfig(sid) for sid in sc.scenario_ids(catalog_only=False)
      if sid != "intersection"),
    *(sc.ScenarioConfig("intersection", adversaries=m) for m in range(1, 9)),
], ids=lambda cfg: f"{cfg.scenario_id}-m{cfg.adversaries}")
def test_every_scenario_builds_at_its_feature_bounds(cfg):
    bindings = sc.feature_bindings(cfg)
    for values in ([f.lo for f in bindings], [f.hi for f in bindings]):
        assert sc.build_scene(cfg, values).agents


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


def assert_bit_identical(got, want):
    assert got[3] == want[3]
    for x, y in zip(got[:3], want[:3]):
        assert x.dtype == y.dtype == np.float64
        assert np.array_equal(x, y)
        assert x.tobytes() == y.tobytes()  # signs of zero too


def test_python_kernel_matches_oracle_on_rich_scene():
    for dt, max_frames in ((0.1, 300), (0.05, 400), (0.25, 7)):
        assert_bit_identical(
            kin.run_scene(rich_scene(), dt=dt, max_frames=max_frames),
            oracle(rich_scene(), dt, max_frames),
        )


@pytest.mark.parametrize("sid", sc.scenario_ids(catalog_only=False))
def test_python_kernel_matches_oracle_on_known_unsafe(sid):
    cfg = sc.ScenarioConfig(sid)
    scene = sc.build_scene(cfg, sc.known_unsafe_values(cfg))
    assert_bit_identical(
        kin.run_scene(scene, dt=cfg.dt, max_frames=cfg.max_frames),
        oracle(scene, cfg.dt, cfg.max_frames),
    )


def test_python_kernel_matches_oracle_on_intersection_draws():
    cfg = sc.ScenarioConfig("intersection", adversaries=5)
    bindings = sc.feature_bindings(cfg)
    rng = np.random.default_rng(5)
    for _ in range(24):
        scene = sc.build_scene(cfg, [rng.uniform(f.lo, f.hi) for f in bindings])
        assert_bit_identical(
            kin.run_scene(scene, dt=cfg.dt, max_frames=cfg.max_frames),
            oracle(scene, cfg.dt, cfg.max_frames),
        )


def structure(scene):
    return kin._structure(scene)


def one_agent_scene():
    """No crash check; the first waypoint sits exactly on the capture radius."""
    b = kin.SceneBuilder()
    b.add_waypoint_agent(
        "ego", (0.0, 0.0), [(0.0, kin.CAPTURE_RADIUS), (30.0, 4.0)], speed=6.0
    )
    return b.build()


def max_rules_scene():
    """MAX_RULES rules of every type on one lane agent."""
    b = kin.SceneBuilder()
    ego = b.add_lane_agent("ego", (0.0, -3.0), speed=8.0, goal_x=150.0)
    lead = b.add_lane_agent("lead", (20.0, -3.0), speed=3.0, goal_x=150.0)
    walker = b.add_waypoint_agent(
        "walker", (50.0, -8.0), [(50.0, 8.0)], speed=0.0, cruise=1.5
    )
    b.lane_change(ego, lead, trigger=12.0, to_y=3.0, clear_margin=6.0)
    b.brake_ahead(ego, walker, trigger=14.0, decel=7.0, corridor=3.0)
    b.wait_until_near(ego, lead, trigger=30.0)
    b.boost_on_lateral(ego, walker, offset_threshold=2.0, boost_speed=10.0,
                       ref_y=-8.0)
    b.brake_near(ego, walker, trigger=6.0, decel=9.0)
    b.brake_ahead(ego, lead, trigger=8.0, decel=5.0, corridor=2.0)
    b.lane_change(ego, walker, trigger=20.0, to_y=-6.0, clear_margin=2.0)
    b.boost_on_lateral(ego, lead, offset_threshold=1.0, boost_speed=12.0,
                       ref_y=-3.0)
    scene = b.build()
    assert [len(rules) for rules in scene.rules] == [kin.MAX_RULES, 0, 0]
    return scene


def mutual_scene():
    """Rules from a to b and from b to a: each must read frame-k positions."""
    b = kin.SceneBuilder()
    a0 = b.add_lane_agent("a0", (0.0, 0.0), speed=9.0, goal_x=200.0)
    a1 = b.add_waypoint_agent("a1", (30.0, -12.0), [(30.0, 30.0)], speed=4.0)
    a2 = b.add_lane_agent("a2", (12.0, 0.0), speed=3.0, goal_x=200.0)
    b.brake_near(a0, a2, trigger=7.0, decel=4.0)
    b.brake_near(a2, a0, trigger=8.0, decel=3.0)
    b.boost_on_lateral(a2, a1, offset_threshold=3.0, boost_speed=11.0,
                       ref_y=-12.0)
    b.wait_until_near(a1, a0, trigger=26.0)
    b.lane_change(a2, a0, trigger=9.0, to_y=4.0, clear_margin=1.0)
    b.brake_ahead(a1, a2, trigger=10.0, decel=6.0, corridor=3.0)
    return b.build()


@pytest.mark.parametrize("make, dt, max_frames", [
    (one_agent_scene, 0.1, 300),
    (max_rules_scene, 0.1, 300),
    (mutual_scene, 0.1, 300),
    (mutual_scene, 0.05, 500),
    (rich_scene, 0.1, 1),
    (one_agent_scene, 0.1, 1),
])
def test_generated_kernel_matches_oracle(make, dt, max_frames):
    scene = make()
    assert_bit_identical(
        kin.run_scene(scene, dt=dt, max_frames=max_frames),
        oracle(scene, dt, max_frames),
    )


def test_generated_kernel_depends_on_structure_only():
    cfg = sc.ScenarioConfig("intersection", adversaries=5)
    bindings = sc.feature_bindings(cfg)
    rng = np.random.default_rng(11)
    one, two = (
        sc.build_scene(cfg, [rng.uniform(f.lo, f.hi) for f in bindings])
        for _ in range(2)
    )
    assert not np.array_equal(one.pos, two.pos)
    assert structure(one) == structure(two)
    assert kin._compiled(structure(one)) is kin._compiled(structure(two))
    # Agent names and float values never reach the source.
    renamed = kin.Scene(**{**vars(two), "agents": ("x = 1; import os",) * 6})
    assert structure(renamed) == structure(one)
    source = kin._kernel_source(*structure(one))
    assert source == kin._kernel_source(*structure(two))
    floats = [v for p in one.pos for v in p] + [
        f for rules in one.rules for rule in rules for f in rule[2:]
    ]
    for value in floats:
        if value not in (0.0, 1.0, 2.0):
            assert repr(float(value)) not in source


@pytest.mark.parametrize("field, value", [
    ("mode", [2, 0]),
    ("rule_type", (6, 1)),
    ("rule_target", (1, 2)),
    ("rule_target", (1, 0.5)),
    ("rule_target", (kin.RULE_BRAKE_AHEAD, 0)),  # the ego aimed at itself
])
def test_generated_kernel_rejects_bad_structure(field, value):
    b = kin.SceneBuilder()
    b.add_lane_agent("ego", (0.0, 0.0), speed=5.0, goal_x=100.0)
    b.brake_near(0, b.add_lane_agent("lead", (9.0, 0.0), speed=2.0, goal_x=100.0),
                 trigger=5.0, decel=4.0)
    scene = b.build()
    if field == "mode":
        scene.mode = value
    else:  # value is the (type, target) of the ego's one rules entry
        scene.rules[0] = [(*value, 5.0, 4.0, 0.0)]
    with pytest.raises(DomainError):
        kin.run_scene(scene)


def test_generated_kernel_cache_is_bounded():
    kinds = range(kin.RULE_BRAKE_NEAR, kin.RULE_BRAKE_AHEAD + 1)
    structures = [
        ((kin.MODE_LANE, kin.MODE_LANE),
         (tuple((rt, 1) for rt in seq), ()))
        for seq in itertools.product(kinds, repeat=3)
    ]
    assert len(structures) > kin.KERNEL_CACHE_SIZE
    names = [kin._compiled(s).__code__.co_filename for s in structures]
    assert len(set(names)) == len(structures)
    assert len(kin._kernels) == kin.KERNEL_CACHE_SIZE
    # An evicted kernel's source leaves linecache with it.
    assert names[0] not in linecache.cache
    assert names[-1] in linecache.cache


def test_generated_kernel_source_is_in_linecache():
    fn = kin._compiled(structure(rich_scene()))
    filename = fn.__code__.co_filename
    assert filename == (
        "<falsify.kinematics kernel: lane lane_change->1 brake_near->2"
        " brake_ahead->3; lane boost_on_lateral->0; lane;"
        " waypoint wait_until_near->0>"
    )
    source = kin._kernel_source(*structure(rich_scene()))
    assert inspect.getsource(fn) == source
    # A fault inside the kernel names the generated line it happened on.
    with pytest.raises(TypeError) as info:
        fn(*[None] * 14)
    frame = traceback.extract_tb(info.value.__traceback__)[-1]
    assert frame.filename == filename
    assert frame.line == linecache.getline(filename, frame.lineno).strip()
    assert frame.line == "(x0, y0), (x1, y1), (x2, y2), (x3, y3), = pos"


def signed_zero_scene():
    """Headings that flip between +0.0 and -0.0, which compare equal.

    The ego's waypoints alternate the sign of zero in y, and ``car`` steers
    toward a lane at -0.0 while it passes the ego, then back to +0.0.
    """
    b = kin.SceneBuilder()
    ego = b.add_waypoint_agent(
        "ego", (0.0, 0.0), [(5.0, -0.0), (10.0, 0.0), (15.0, -0.0), (20.0, 0.0)],
        speed=6.0,
    )
    car = b.add_lane_agent("car", (-12.0, 0.0), speed=10.0, goal_x=60.0)
    walker = stationary_obstacle(b, "walker", (40.0, -0.0))
    b.brake_ahead(ego, walker, trigger=30.0, decel=4.0, corridor=2.0)
    b.lane_change(car, ego, trigger=8.0, to_y=-0.0, clear_margin=1.0)
    return b.build()


def test_generated_kernel_keeps_the_sign_of_zero_headings():
    scene = signed_zero_scene()
    got = kin.run_scene(scene)
    assert_bit_identical(got, oracle(scene))
    heading = got[1]
    for a in (0, 1):
        zeros = heading[:, a][heading[:, a] == 0.0]
        signs = set(np.signbit(zeros).tolist())
        assert signs == {False, True}, scene.agents[a]


@given(st.floats(allow_nan=False), st.floats(allow_nan=False))
def test_hypot_is_never_below_either_leg(dx, dy):
    # What makes the generated kernel's hypot guards exact.
    assert math.hypot(dx, dy) >= max(abs(dx), abs(dy))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_atan2_returns_a_zero_numerator(zero):
    # What lets a lane agent on its lane skip the atan2 call.
    got = math.atan2(kin.LATERAL_GAIN * zero, 1.0)
    assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, zero)


@functools.cache
def reach_gate():
    """The minima kernel's reach bound and brake-ahead test, on their own.

    ``gate(tx, ty, h, f0, f2)`` takes the legs from an ego with heading h to
    its target and returns ``(q, lim, fires)``: the target's q as the
    tracking step computes it (from the negated legs), the rule's ``lim``
    (``kin._reach``), and whether the full test (``kin._ahead``) fires.
    """
    lines = ["def gate(tx, ty, h, f0, f2):", "    inf, nan = math.inf, math.nan",
             f"    tiny, reach = {kin.TINY!r}, {kin.REACH!r}"]
    kin._reach(lambda depth, *texts: lines.extend("    " * depth + t for t in texts),
               1, "lim", "f0", "f2")
    lines += ["    dx1, dy1 = -tx, -ty", "    q = dx1 * dx1 + dy1 * dy1",
              "    co, sn = math.cos(h), math.sin(h)",
              f"    return q, lim, bool({kin._ahead('tx', 'ty', 'co', 'sn', 'f0', 'f2')})"]
    namespace = {"math": math}
    exec("\n".join(lines) + "\n", namespace)
    return namespace["gate"]


@st.composite
def reach_cases(draw):
    """Legs, a heading, f0 and f2, often on or near the reach boundary."""
    half = st.integers(min_value=-120, max_value=120).map(lambda k: k / 2)
    size = st.floats(min_value=0.0, exclude_min=True) | half.filter(lambda v: v > 0) | (
        st.floats(min_value=1e-310, max_value=1e-150))
    heading = st.floats(-math.pi, math.pi) | st.sampled_from(
        [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, math.pi / 4])
    f0, f2, h = draw(size), draw(size), draw(heading)
    if draw(st.booleans()):
        leg = st.floats() | half | st.sampled_from([0.0, -0.0]) | st.floats(-1e-200, 1e-200)
        return draw(leg), draw(leg), h, f0, f2
    # along and cross just inside, on or just past (f0, f2), turned by h.
    along = math.nextafter(f0, draw(st.sampled_from([0.0, f0, math.inf])))
    cross = math.nextafter(f2, draw(st.sampled_from([0.0, f2, math.inf])))
    cross = math.copysign(cross, draw(st.sampled_from([1.0, -1.0])))
    c, s = math.cos(h), math.sin(h)
    return along * c - cross * s, along * s + cross * c, h, f0, f2


@given(reach_cases())
@example((3.0, 4.0, 0.0, 3.0, 4.0))
@example((math.nextafter(3.0, 0), math.nextafter(4.0, 0), 0.0, 3.0, 4.0))
@example((1e200, 0.0, 0.0, math.inf, 1.0))
@example((1.0, 0.0, 0.0, 1e308, 1e308))
@example((1e-300, 0.0, 0.0, 1e-300, 1e-300))
@example((math.inf, 0.0, 0.0, 1.0, 1.0))
@example((0.0, -0.0, -0.0, 5e-324, 5e-324))
@settings(max_examples=400, deadline=None)
def test_reach_gate_never_skips_a_firing_rule(case):
    # What makes the minima kernel's brake-ahead gate exact.
    q, lim, fires = reach_gate()(*case)
    f0, f2 = case[3:]
    if fires:  # so the gate ``not q >= lim`` lets the target through
        assert q < lim or math.isnan(lim)
    bound = (f0 * f0 + f2 * f2) * kin.REACH
    if kin.TINY <= bound < math.inf:
        assert lim == bound
    else:
        assert math.isnan(lim)  # so ``not q >= lim`` skips nothing


def assert_skips_known_math_calls(minima):
    """The trig cache, the hypot guards and the lane ±0 shortcut, pinned by a count.

    Without the first two the kernel makes about 22 hypot, cos and sin
    calls per frame on these m=5 intersection draws; with them, about 1.
    Without the shortcut it makes 4.23 atan2 calls per frame; with it, 3.23.
    """
    cfg = sc.ScenarioConfig("intersection", adversaries=5)
    bindings = sc.feature_bindings(cfg)
    rng = np.random.default_rng(5)
    calls = collections.Counter()

    def counted(name):
        fn = getattr(math, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    shim = types.SimpleNamespace(
        inf=math.inf, nan=math.nan,
        **{name: counted(name) for name in ("hypot", "atan2", "cos", "sin")},
    )
    frames = 0
    for _ in range(12):
        scene = sc.build_scene(cfg, [rng.uniform(f.lo, f.hi) for f in bindings])
        namespace = {"math": shim}
        exec(kin._kernel_source(*kin._structure(scene), minima=minima), namespace)
        out = namespace["kernel"](
            scene.pos, scene.heading, scene.speed, scene.cruise, scene.accel,
            scene.waypoints, scene.goal_x, scene.lane_y, scene.rules,
            cfg.dt, cfg.max_frames,
            kin.CRASH_DISTANCE, kin.CAPTURE_RADIUS, kin.LATERAL_GAIN,
        )
        want = oracle(scene, cfg.dt, cfg.max_frames)
        if minima:
            legs, counts, code = out
            got = kin.min_separations(np.array(legs).reshape(-1, 2), counts), code
            assert_same_minima(got, recorded_minima(scene))
        else:
            assert out[3] == want[3] and out[0] == want[0].ravel().tolist()
        frames += len(want[0])
    assert frames > 1000
    per_frame = (calls["hypot"] + calls["cos"] + calls["sin"]) / frames
    assert per_frame < 3.0, dict(calls)
    assert calls["atan2"] / frames < 3.5, dict(calls)


def test_generated_kernel_skips_known_math_calls():
    assert_skips_known_math_calls(minima=False)


def test_minima_kernel_skips_known_math_calls():
    assert_skips_known_math_calls(minima=True)


def test_same_backend_is_deterministic():
    a = kin.run_scene(rich_scene())
    b = kin.run_scene(rich_scene())
    assert a[3] == b[3]
    for x, y in zip(a[:3], b[:3]):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("make", [rich_scene, max_rules_scene, mutual_scene])
def test_scene_is_input_only(make):
    scene = make()
    for run in (kin.run_scene, oracle):
        assert_bit_identical(run(scene), run(scene))
    legs, counts, code = kin.run_scene(scene, minima=True)
    again = kin.run_scene(scene, minima=True)
    assert legs.tobytes() == again[0].tobytes() and (counts, code) == again[1:]
    fresh = make()
    for f in dataclasses.fields(kin.Scene):
        assert getattr(scene, f.name) == getattr(fresh, f.name), f.name


# ---------------------------------------------------------------------------
# Motion invariants (property-based)
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def scenes(draw):
    b = kin.SceneBuilder()
    n = draw(st.integers(min_value=1, max_value=4))
    # Half-metre grid values can put one leg of a distance exactly on
    # CRASH_DISTANCE (0.5) or CAPTURE_RADIUS (1.5), or a gap on a trigger.
    half = st.integers(min_value=-160, max_value=160).map(lambda k: k / 2)
    coord = st.floats(min_value=-80, max_value=80) | half | st.sampled_from([0.0, -0.0])
    spd = st.floats(min_value=0, max_value=15) | st.sampled_from([0.0, 5.0])
    trigger = st.floats(1, 30) | st.integers(2, 60).map(lambda k: k / 2)
    lanes, where = set(), []
    for i in range(n):
        pos = (draw(coord), draw(coord))
        where.append(pos)
        if draw(st.booleans()):
            b.add_lane_agent(f"a{i}", pos, speed=draw(spd),
                             goal_x=draw(st.floats(min_value=50, max_value=200)))
            lanes.add(i)
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
        kind = draw(st.integers(0, 4 if a in lanes else 3))
        if kind == 0:
            b.brake_near(a, t, trigger=draw(trigger),
                         decel=draw(st.floats(1, 10)))
        elif kind == 1:
            # An ego's target may start on the reach boundary of the minima
            # kernel's brake-ahead gate: f0**2 + f2**2 = dx**2 + dy**2.
            legs = [abs(where[t][k] - where[0][k]) for k in (0, 1)]
            if a == 0 and min(legs) >= 0.5 and draw(st.booleans()):
                f0, f2 = (math.nextafter(v, draw(st.sampled_from([0, v, math.inf])))
                          for v in legs)
            else:
                f0, f2 = draw(trigger), draw(st.floats(0.5, 6))
            b.brake_ahead(a, t, trigger=f0, decel=draw(st.floats(1, 10)), corridor=f2)
        elif kind == 2:
            b.wait_until_near(a, t, trigger=draw(st.floats(0, 30) | half.map(abs)))
        elif kind == 3:
            b.boost_on_lateral(a, t, offset_threshold=draw(st.floats(0.5, 5)),
                               boost_speed=draw(st.floats(0, 15)),
                               ref_y=draw(st.floats(-10, 10)))
        else:
            # A lane at the agent's own y (or its negated zero) keeps it on
            # its lane, steering by atan2(+-0.0, 1.0).
            on_lane = st.sampled_from([where[a][1], -where[a][1]])
            b.lane_change(a, t, trigger=draw(trigger), to_y=draw(coord | on_lane),
                          clear_margin=draw(st.floats(0, 10) | half.map(abs)))
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
        kin.run_scene(scene, dt=0.1, max_frames=120),
        oracle(scene, 0.1, 120),
    )


# ---------------------------------------------------------------------------
# Minima kernel: each agent's minimum separation without a trajectory
# ---------------------------------------------------------------------------


def recorded_minima(scene, dt=0.1, max_frames=300):
    """Each agent's minimum ego separation, read off the recording kernel."""
    pos, _, _, code = kin.run_scene(scene, dt=dt, max_frames=max_frames)
    with np.errstate(invalid="ignore"):  # inf - inf
        legs = pos[:, :1] - pos
    return np.hypot(legs[..., 0], legs[..., 1]).min(axis=0), code


def kernel_minima(scene, dt=0.1, max_frames=300):
    legs, counts, code = kin.run_scene(scene, dt=dt, max_frames=max_frames,
                                       minima=True)
    assert legs.shape == (sum(counts), 2) and counts[0] == 1 and min(counts) >= 1
    return kin.min_separations(legs, counts), code


def assert_same_minima(got, want):
    (a, code_a), (b, code_b) = got, want
    assert code_a == code_b
    assert a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make", [rich_scene, max_rules_scene, mutual_scene,
                                  one_agent_scene, signed_zero_scene])
@pytest.mark.parametrize("max_frames", [1, 300])
def test_minima_kernel_matches_recording(make, max_frames):
    assert_same_minima(kernel_minima(make(), max_frames=max_frames),
                       recorded_minima(make(), max_frames=max_frames))


@given(scenes())
@settings(max_examples=80, deadline=None)
def test_minima_kernel_matches_recording_property(scene):
    assert_same_minima(kernel_minima(scene, max_frames=120),
                       recorded_minima(scene, max_frames=120))


@given(scenes())
@settings(max_examples=60, deadline=None)
def test_minima_kernel_matches_recording_property_to_the_horizon(scene):
    # 300 frames, so the minima kernel may stop near the last frame.
    assert_same_minima(kernel_minima(scene, max_frames=300),
                       recorded_minima(scene, max_frames=300))


@pytest.mark.parametrize("cfg", [
    *(sc.ScenarioConfig(sid) for sid in sc.scenario_ids(catalog_only=False)
      if sid != "intersection"),
    *(sc.ScenarioConfig("intersection", adversaries=m) for m in range(1, 9)),
], ids=lambda cfg: cfg.scenario_id if cfg.scenario_id != "intersection"
    else f"intersection-m{cfg.adversaries}")
def test_minima_kernel_matches_recording_on_draws(cfg):
    # 103 draws: every feature at its lower bound, at its upper bound, at
    # its midpoint, and 100 uniform draws, each through both kernels.
    bindings = sc.feature_bindings(cfg)
    rng = np.random.default_rng(60)
    draws = [[f.lo for f in bindings], [f.hi for f in bindings],
             [(f.lo + f.hi) / 2 for f in bindings]]
    draws += [[rng.uniform(f.lo, f.hi) for f in bindings] for _ in range(100)]
    for values in draws:
        scene = sc.build_scene(cfg, values)
        assert_same_minima(kernel_minima(scene, cfg.dt, cfg.max_frames),
                           recorded_minima(scene, cfg.dt, cfg.max_frames))


def test_minima_kernel_keeps_few_legs():
    # In scenarios 6 and 7 the ego often stops short of a stopped agent, so
    # its leg to that agent repeats for the rest of the run: it is kept once.
    for cfg in (sc.ScenarioConfig("intersection", adversaries=5),
                sc.ScenarioConfig("6"), sc.ScenarioConfig("7")):
        rng = np.random.default_rng(3)
        for _ in range(10):
            scene = sc.build_scene(
                cfg, [rng.uniform(f.lo, f.hi) for f in sc.feature_bindings(cfg)])
            legs, counts, _ = kin.run_scene(scene, minima=True)
            assert len(kin.run_scene(scene)[0]) > 10 and max(counts) < 4, counts


@pytest.mark.parametrize("where, value", [
    ((0, 0), math.nan), ((0, 1), math.inf), ((1, 0), -math.inf), ((2, 1), math.nan),
])
def test_minima_kernel_propagates_non_finite_positions(where, value):
    scene = rich_scene()
    a, axis = where
    xy = list(scene.pos[a])
    xy[axis] = value
    scene.pos[a] = tuple(xy)
    got, want = kernel_minima(scene), recorded_minima(scene)
    assert got[1] == want[1]
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert not np.all(np.isfinite(got[0]))


def test_minima_kernel_measures_legs_whose_square_underflows():
    # 1e-280 m apart: q underflows to 0.0, where hypot does not.
    b = kin.SceneBuilder()
    stationary_obstacle(b, "ego", (0.0, 0.0))
    stationary_obstacle(b, "near", (1e-280, 0.0))
    legs, counts, code = kin.run_scene(b.build(), minima=True)
    assert code == kin.CODE_CRASH and counts == (1, 1)
    assert kin.min_separations(legs, counts).tolist() == [0.0, 1e-280]


@functools.cache
def candidate_filter():
    """The minima kernel's candidate step for one agent, on its own.

    ``keep(legs)`` runs the step ``kin._track`` emits over a sequence of
    ``(dx, dy)`` legs and returns the kept ones flat, ``[dx, dy, ...]``:
    what a minima kernel hands back for an agent whose legs those were.
    """
    lines = ["def keep(legs):", "    inf = math.inf",
             f"    tie, tiny = {kin.TIE!r}, {kin.TINY!r}", "    qm1 = qb1 = inf",
             "    lg1 = []", "    for dx1, dy1 in legs:"]
    kin._track(lambda depth, *texts: lines.extend("    " * depth + t for t in texts),
               2, 1, crash=False)
    lines.append("    return lg1")
    namespace = {"math": math}
    exec("\n".join(lines) + "\n", namespace)
    return namespace["keep"]


# A pair of legs whose q = dx*dx + dy*dy and np.hypot disagree on order:
# q(FAR) < q(NEAR) by one ulp, yet hypot(FAR) > hypot(NEAR).  A filter that
# keeps only the smallest q would drop NEAR, the true minimum.
FAR = (-63.76780202092754, -3.7451882994656165)
NEAR = (62.86911066052508, 11.306366999762393)


def test_pinned_legs_disagree_on_order():
    (fx, fy), (nx, ny) = FAR, NEAR
    assert fx * fx + fy * fy < nx * nx + ny * ny
    assert np.hypot(fx, fy) > np.hypot(nx, ny)


legs_st = st.tuples(st.floats(), st.floats()) | st.tuples(
    st.floats(-100, 100), st.floats(-100, 100))


@given(st.lists(legs_st | st.sampled_from([FAR, NEAR]), min_size=1, max_size=60))
@example([FAR, NEAR])
@example([NEAR, FAR])
@example([FAR, (70.0, 0.0), NEAR, FAR])
@example([(3.0, 4.0), (3.0, 4.0 - 2.0 ** -49)])  # one coordinate equal, a near-tie
@example([(4.0, 3.0), (4.0 - 2.0 ** -49, 3.0)])
@settings(max_examples=300, deadline=None)
def test_candidate_filter_keeps_the_minimum(legs):
    kept = candidate_filter()(legs)
    assert kept and len(kept) % 2 == 0
    every = np.array(legs, dtype=float)
    with np.errstate(over="ignore"):  # legs near the largest float
        got = kin.min_separations(np.array(kept).reshape(-1, 2), (len(kept) // 2,))
        want = np.hypot(every[:, 0], every[:, 1]).min(keepdims=True)
    if np.isnan(want[0]):
        assert np.isnan(got[0])
    else:
        assert got.tobytes() == want.tobytes()


def test_candidate_filter_keeps_a_repeated_leg_once():
    keep = candidate_filter()
    assert keep([(3.0, 4.0)] * 5) == [3.0, 4.0]
    assert keep([(3.0, 4.0), (-0.0, 9.0), (3.0, 4.0)]) == [3.0, 4.0]
    # After a leg below TINY every later frame is kept, repeats aside.
    assert keep([(0.0, 0.0), (3.0, 4.0), (3.0, 4.0), (0.0, 0.0)]) == [
        0.0, 0.0, 3.0, 4.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# Minima kernel: stopping once the result is decided
# ---------------------------------------------------------------------------


@functools.cache
def kernel_code(structure, minima):
    """A structure's kernel source, compiled once for ``frames_run``."""
    return compile(kin._kernel_source(*structure, minima=minima), "<kernel>", "exec")


def frames_run(scene, dt=0.1, max_frames=300, minima=True):
    """Run a kernel with a counting ``range``; return (frames run, result).

    Every ``range`` a kernel iterates with step 1 is a frame loop, so the
    count is the number of frames the kernel ran.  The result is what
    ``kernel_minima`` or ``recorded_minima`` returns.
    """
    count = [0]

    def counting_range(*args):
        frames = range(*args)
        for k in frames:
            count[0] += frames.step == 1
            yield k

    namespace = {"math": math, "range": counting_range}
    exec(kernel_code(kin._structure(scene), minima), namespace)
    out = namespace["kernel"](
        scene.pos, scene.heading, scene.speed, scene.cruise, scene.accel,
        scene.waypoints, scene.goal_x, scene.lane_y, scene.rules, dt, max_frames,
        kin.CRASH_DISTANCE, kin.CAPTURE_RADIUS, kin.LATERAL_GAIN,
    )
    if minima:
        legs, counts, code = out
        return count[0], (kin.min_separations(np.array(legs).reshape(-1, 2), counts), code)
    assert count[0] == len(out[2]) // len(scene.agents)
    return count[0], recorded_minima(scene, dt, max_frames)


def share_of_frames_run(cfg, draws, seed):
    """Frames the minima kernel ran over the recording kernel's, on uniform draws."""
    bindings = sc.feature_bindings(cfg)
    rng = np.random.default_rng(seed)
    ran = recorded = 0
    for _ in range(draws):
        scene = sc.build_scene(cfg, [rng.uniform(f.lo, f.hi) for f in bindings])
        frames, got = frames_run(scene, cfg.dt, cfg.max_frames)
        every, want = frames_run(scene, cfg.dt, cfg.max_frames, minima=False)
        assert_same_minima(got, want)
        ran, recorded = ran + frames, recorded + every
    return ran / recorded


def test_minima_kernel_stops_early_on_the_intersection():
    # 47% of the frames run on these draws; 73% without the steady-ego
    # bound, which decides adversaries that follow the ego down its lane.
    cfg = sc.ScenarioConfig("intersection", adversaries=5)
    assert share_of_frames_run(cfg, draws=60, seed=5) <= 0.60


@pytest.mark.parametrize("sid", ["1", "2", "3", "4", "6"])
def test_minima_kernel_stops_early_on_the_catalog(sid):
    # 46-64% of the frames run on these draws.
    assert share_of_frames_run(sc.ScenarioConfig(sid), draws=30, seed=6) <= 0.75


def varied_intersection(rng):
    """An intersection scene off the catalog's ranges: any ego speed, cruise
    and goal, 1-8 adversaries at any distance and speed, and random rules
    between the ego and each adversary."""
    b = kin.SceneBuilder()
    speed = rng.uniform(2, 14)
    ego = b.add_lane_agent(
        "ego", (-rng.uniform(5, 40), -sc.HALF), speed=speed,
        cruise=rng.choice([speed, rng.uniform(2, 14)]), goal_x=rng.uniform(20, 120),
        accel=rng.uniform(1, 4))
    for i in range(rng.integers(1, 9)):
        arm = sc.ARM_CYCLE[rng.integers(0, 3)]
        lane, waypoints = sc._APPROACHES[(arm, sc.MANEUVERS[rng.integers(0, 3)])]
        start = sc._intersection_start(arm, lane, rng.uniform(5, 90))
        adv = b.add_waypoint_agent(f"adv{i}", start, waypoints, speed=rng.uniform(0, 14))
        rule = rng.random()
        if rule < 0.7:
            b.brake_ahead(ego, adv, trigger=rng.uniform(5, 30), decel=rng.uniform(2, 10),
                          corridor=rng.uniform(1, 6))
        elif rule < 0.85:
            b.brake_near(ego, adv, trigger=rng.uniform(3, 20), decel=rng.uniform(2, 10))
        elif rule < 0.95:
            b.wait_until_near(adv, ego, trigger=rng.uniform(3, 40))
    return b.build()


def overtaken_ego_scene():
    """The fast car overtakes the ego on its lane; the ego brakes for it.

    Meanwhile the slow car follows the ego, and once the ego brakes it
    closes in to 12.47 m from the 18.50 m it kept before.  A decision on
    the slow car that took the ego to be steady without proving that none
    of its rules can fire would stop at frame 256 with the 18.50 m.
    """
    b = kin.SceneBuilder()
    ego = b.add_lane_agent("ego", (-21.410356090274263, -3.0), speed=7.063196652532507,
                           goal_x=54.797898443961586, accel=1.9177569348636399)
    route = [(-3.0, -3.0), (60.0, -3.0)]
    for name, y, speed, f0, f1, f2 in [
        ("fast", 52.790359286338905, 8.49054224616531,
         17.70135406976155, 8.487252649653971, 5.56492390437164),
        ("slow", 39.45547960121207, 6.583279715701141,
         13.323556696488064, 5.34191986053779, 1.2027105358877006),
    ]:
        adv = b.add_waypoint_agent(name, (-3.0, y), route, speed=speed)
        b.brake_ahead(ego, adv, trigger=f0, decel=f1, corridor=f2)
    for name, pos, waypoints, speed, f0, f1, f2 in [
        ("west", (13.66811660217476, 3.0), [(-60.0, 3.0)], 5.679761752410607,
         7.5435659232469465, 2.5131626050483504, 3.573457496866573),
        ("south", (38.7646728589443, 3.0), [(-3.0, 3.0), (-3.0, -60.0)],
         0.8447635656331156, 21.231469808266432, 3.227935803667248, 2.818898236888592),
    ]:
        adv = b.add_waypoint_agent(name, pos, waypoints, speed=speed)
        b.brake_ahead(ego, adv, trigger=f0, decel=f1, corridor=f2)
    return b.build()


def test_minima_kernel_proves_the_ego_steady_before_using_it():
    frames, got = frames_run(overtaken_ego_scene())
    every, want = frames_run(overtaken_ego_scene(), minima=False)
    assert_same_minima(got, want)
    assert round(want[0][2], 2) == 12.47


def test_minima_kernel_matches_recording_on_varied_intersections():
    # Adversaries that follow the ego down its lane, an ego that brakes or
    # waits late, and adversaries that stop: the steady-ego bound's cases.
    rng = np.random.default_rng(16)
    stopped = 0
    for _ in range(300):
        scene = varied_intersection(rng)
        frames, got = frames_run(scene)
        every, want = frames_run(scene, minima=False)
        assert_same_minima(got, want)
        stopped += frames < every
    assert stopped > 150


def cleared_scene():
    """The ego drives to its goal while a walker walks away to its kerb."""
    b = kin.SceneBuilder()
    ego = b.add_lane_agent("ego", (0.0, 0.0), speed=10.0, goal_x=100.0)
    walker = b.add_waypoint_agent("walker", (0.0, 10.0), [(0.0, 60.0)], speed=5.0)
    b.brake_near(ego, walker, trigger=8.0, decel=6.0)
    return b.build()


def time_limit_scene():
    """The ego drives away from a parked car toward a goal it cannot reach."""
    b = kin.SceneBuilder()
    ego = b.add_lane_agent("ego", (0.0, 0.0), speed=5.0, goal_x=1000.0)
    parked = stationary_obstacle(b, "parked", (-10.0, 0.0))
    b.brake_ahead(ego, parked, trigger=20.0, decel=6.0, corridor=2.0)
    return b.build()


@pytest.mark.parametrize("make, code", [(cleared_scene, kin.CODE_CLEARED),
                                        (time_limit_scene, kin.CODE_TIME_LIMIT)])
def test_minima_kernel_stops_at_the_first_chunk_with_each_verdict(make, code):
    frames, got = frames_run(make())
    every, want = frames_run(make(), minima=False)
    assert_same_minima(got, want)
    assert want[1] == code
    assert frames == kin.CHUNK < every


def late_brake_scene():
    """The car would reach its goal at frame 270, but brakes for the walker."""
    b = kin.SceneBuilder()
    b.add_lane_agent("ego", (0.0, -100.0), speed=0.0, goal_x=-1.0)
    car = b.add_lane_agent("car", (0.0, 0.0), speed=10.0, goal_x=270.0)
    walker = b.add_waypoint_agent("walker", (100.0, -20.0), [(100.0, 20.0)], speed=2.0)
    b.brake_near(car, walker, trigger=10.0, decel=6.0)
    return b.build()


def held_scene():
    """The car still rolls at frame 32, but waits for an ego that never comes."""
    b = kin.SceneBuilder()
    ego = b.add_lane_agent("ego", (0.0, -100.0), speed=0.0, goal_x=-1.0)
    car = b.add_lane_agent("car", (0.0, 0.0), speed=10.0, goal_x=150.0, accel=0.5)
    b.wait_until_near(car, ego, trigger=5.0)
    return b.build()


def swerve_scene():
    """The car would reach its goal at frame 285, but swerves 30 m around a slow car."""
    b = kin.SceneBuilder()
    b.add_lane_agent("ego", (0.0, -200.0), speed=0.0, goal_x=-1.0)
    car = b.add_lane_agent("car", (0.0, 0.0), speed=10.0, goal_x=285.0)
    slow = b.add_lane_agent("slow", (60.0, 0.0), speed=5.0, goal_x=65.0)
    b.lane_change(car, slow, trigger=10.0, to_y=30.0, clear_margin=1000.0)
    return b.build()


@pytest.mark.parametrize("make", [late_brake_scene, held_scene, swerve_scene])
def test_minima_kernel_does_not_clear_on_what_a_rule_can_still_change(make):
    # Every agent is decided at frame 32, where the car, kept at its speed
    # and heading, would finish in time; a rule that can still fire, or a
    # wait not yet released, makes it miss the last frame.  The ego is
    # parked out of the way, and done.
    frames, got = frames_run(make())
    every, want = frames_run(make(), minima=False)
    assert_same_minima(got, want)
    assert want[1] == kin.CODE_TIME_LIMIT and kin.CHUNK < frames


def test_minima_kernel_bounds_the_ray_after_the_last_capture_by_a_cone():
    # The car captures waypoint (0, 0) off its axis and then heads for
    # (6.5, 0) at a slant that it keeps after that capture, so its ray
    # passes the parked ego at 0.68 m, nearer than the 2 m it started at.
    # A box that took the ray along the last leg exactly would call the
    # car decided, and stop at frame 32 with the 2 m minimum.
    b = kin.SceneBuilder()
    stationary_obstacle(b, "ego", (60.0, -10.5))
    b.add_waypoint_agent("car", (60.0, -8.5), [(0.0, 30.0), (0.0, 0.0), (6.5, 0.0)],
                         speed=14.0)
    frames, got = frames_run(b.build())
    every, want = frames_run(b.build(), minima=False)
    assert_same_minima(got, want)
    assert got[0][1] < 0.7 and kin.CHUNK < frames < every


def bypassing_builder(change):
    """``cleared_scene`` changed in a way SceneBuilder rejects."""
    def make():
        scene = cleared_scene()
        change(scene)
        return scene
    make.__name__ = change.__name__
    return make


def negative_accel(scene):
    scene.accel[0] = -3.0
    scene.cruise[0] = 20.0


def negative_decel(scene):
    scene.rules[0] = [(kin.RULE_BRAKE_NEAR, 1, 8.0, -6.0, 0.0)]
    scene.pos[1] = (0.0, 4.0)


def nan_cruise(scene):
    scene.cruise[1] = math.nan


def infinite_speed(scene):
    scene.speed[1] = math.inf


def long_waypoint_step(scene):
    scene.speed[1] = scene.cruise[1] = 15.0  # a step of 1.5 m, the capture radius


def far_coordinates(scene):
    shift = 1e6
    scene.pos[:] = [(x + shift, y) for x, y in scene.pos]
    scene.waypoints[1] = [(x + shift, y) for x, y in scene.waypoints[1]]
    scene.goal_x[0] += shift


@pytest.mark.parametrize("make", [
    bypassing_builder(change) for change in (
        negative_accel, negative_decel, nan_cruise, infinite_speed,
        long_waypoint_step, far_coordinates)
], ids=lambda make: make.__name__)
@pytest.mark.parametrize("max_frames", [1, kin.CHUNK - 1, kin.CHUNK, kin.CHUNK + 1, 300])
def test_minima_kernel_runs_every_frame_without_its_preconditions(make, max_frames):
    frames, got = frames_run(make(), max_frames=max_frames)
    every, want = frames_run(make(), max_frames=max_frames, minima=False)
    assert got[1] == want[1]
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert frames == every
