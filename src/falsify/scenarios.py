"""Parameterized driving scenes and the catalog that names them.

Eight road scenarios: six two-vehicle/pedestrian situations plus a
lane-change chain and a multi-adversary intersection.  Each scenario
declares the feature dimensions it consumes (with default ranges) and a
builder that turns one sampled feature vector into a Scene for the
integrator.  Two extra synthetic "probe" landscapes with exactly known
unsafe regions are provided for sampler calibration tests; they are not
part of the road catalog.

Geometry conventions: intersection at the origin, lanes 6 m wide, lane
centers at ±``HALF`` = ±3 m.  Eastbound traffic uses y = -3, westbound
y = +3, northbound x = +3, southbound x = -3.  Intersection arms reach
``ARM_LENGTH`` = 60 m from the center, and pedestrians wait at the kerb
``PED_EDGE`` = 9 m either side of the road axis.  A scenario's monitored
agents are its non-ego agents, read off the scene its builder makes.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping, Sequence

from .errors import ConfigError
from .kinematics import Scene, SceneBuilder, min_separations, run_scene
from .monitor import (
    DEFAULT_MAX_FRAMES,
    EGO,
    TERMINATIONS,
    MinSeparation,
    SeparationMinima,
    Specification,
    Trajectory,
)
from .space import Dimension, FeatureSpace, SampleVector

# Road geometry (not sampled).
HALF = 3.0  # lane-center offset from the road axis: lanes are 6 m wide
ARM_LENGTH = 60.0
PED_EDGE = 9.0  # pedestrian kerb: lane width plus 3 m

# Shared behavior constants (not sampled).
EGO_ACCEL = 3.0
BRAKE_DECEL = 6.0
HARD_DECEL = 8.0
WALK_ACCEL = 2.0
ROAD_END = 150.0
INTERSECTION_EGO_SPEED = 9.0
INTERSECTION_EGO_START = 25.0
INTERSECTION_BRAKE_TRIGGER = 20.0
MAX_INTERSECTION_ADVERSARIES = 8

ARM_CYCLE = ("north", "east", "south")
MANEUVERS = ("left", "straight", "right")


@dataclass(frozen=True)
class ScenarioConfig:
    """Selects a scenario: its id and, for the intersection, how many
    adversaries.  Every scenario steps at ``dt`` for ``max_frames``."""

    scenario_id: str
    adversaries: int = 1  # intersection only
    dt: ClassVar[float] = 0.1
    max_frames: ClassVar[int] = DEFAULT_MAX_FRAMES

    def __post_init__(self):
        if self.scenario_id not in REGISTRY:
            raise ConfigError(
                f"unknown scenario {self.scenario_id!r}; "
                f"known: {sorted(REGISTRY)}"
            )
        if self.scenario_id == "intersection":
            if not 1 <= self.adversaries <= MAX_INTERSECTION_ADVERSARIES:
                raise ConfigError(
                    "intersection adversaries must be in "
                    f"[1, {MAX_INTERSECTION_ADVERSARIES}], got {self.adversaries}"
                )
        elif self.adversaries != 1:
            raise ConfigError(
                "adversary count is only configurable for the intersection scenario"
            )


@dataclass(frozen=True)
class ScenarioDef:
    scenario_id: str
    summary: str
    in_catalog: bool
    features: tuple[Dimension, ...]
    builder: Callable[[ScenarioConfig, Mapping[str, float]], Scene]


# --------------------------------------------------------------- builders


def _build_1(cfg: ScenarioConfig, v: Mapping[str, float]) -> Scene:
    b = SceneBuilder()
    ego = b.add_lane_agent(
        EGO, (-v["ego_distance"], -HALF), speed=v["ego_speed"],
        goal_x=ARM_LENGTH, accel=EGO_ACCEL,
    )
    adv = b.add_waypoint_agent(
        "adv0", (v["adv_distance"], HALF),
        [(-HALF, HALF), (-HALF, -ARM_LENGTH)], speed=v["adv_speed"],
    )
    b.brake_ahead(ego, adv, trigger=18.0, decel=HARD_DECEL, corridor=4.5)
    return b.build()


def _build_2(cfg: ScenarioConfig, v: Mapping[str, float]) -> Scene:
    b = SceneBuilder()
    ego = b.add_waypoint_agent(
        EGO, (-v["ego_distance"], -HALF),
        [(HALF, -HALF), (HALF, ARM_LENGTH)], speed=v["ego_speed"], accel=EGO_ACCEL,
    )
    adv = b.add_waypoint_agent(
        "adv0", (v["adv_distance"], HALF),
        [(-ARM_LENGTH, HALF)], speed=v["adv_speed"],
    )
    b.brake_ahead(ego, adv, trigger=18.0, decel=HARD_DECEL, corridor=4.5)
    return b.build()


def _build_3(cfg: ScenarioConfig, v: Mapping[str, float]) -> Scene:
    b = SceneBuilder()
    ego = b.add_lane_agent(
        EGO, (0.0, -HALF), speed=v["ego_speed"], goal_x=ROAD_END, accel=EGO_ACCEL
    )
    lead = b.add_lane_agent(
        "adv0", (v["gap"], -HALF), speed=v["lead_speed"], goal_x=ROAD_END
    )
    b.lane_change(ego, lead, trigger=10.0, to_y=HALF, clear_margin=v["clear_margin"])
    return b.build()


def _build_4(cfg: ScenarioConfig, v: Mapping[str, float]) -> Scene:
    b = SceneBuilder()
    ego = b.add_lane_agent(
        EGO, (0.0, -HALF), speed=v["ego_speed"], goal_x=ROAD_END, accel=EGO_ACCEL
    )
    adv = b.add_lane_agent(
        "adv0", (-v["gap"], -HALF), speed=v["adv_speed"], goal_x=ROAD_END
    )
    b.lane_change(adv, ego, trigger=10.0, to_y=HALF, clear_margin=v["clear_margin"])
    return b.build()


def _build_5(cfg: ScenarioConfig, v: Mapping[str, float]) -> Scene:
    b = SceneBuilder()
    ego = b.add_lane_agent(
        EGO, (0.0, -HALF), speed=v["ego_speed"], goal_x=ROAD_END, accel=EGO_ACCEL
    )
    lead = b.add_lane_agent(
        "adv0", (v["lead_gap"], -HALF), speed=v["lead_speed"], goal_x=ROAD_END
    )
    blocker = b.add_lane_agent(
        "adv1", (v["blocker_gap"], HALF), speed=2.0, goal_x=ROAD_END
    )
    b.lane_change(ego, lead, trigger=15.0, to_y=HALF, clear_margin=8.0)
    b.brake_near(ego, blocker, trigger=16.0, decel=BRAKE_DECEL)
    b.boost_on_lateral(
        lead, ego, offset_threshold=1.0, boost_speed=v["boost_speed"], ref_y=-HALF
    )
    return b.build()


def _build_6(cfg: ScenarioConfig, v: Mapping[str, float]) -> Scene:
    b = SceneBuilder()
    ego = b.add_lane_agent(
        EGO, (-v["approach"], -HALF), speed=v["ego_speed"], goal_x=ROAD_END,
        accel=EGO_ACCEL,
    )
    ped = b.add_waypoint_agent(
        "ped", (0.0, -PED_EDGE), [(0.0, PED_EDGE)],
        speed=0.0, cruise=v["ped_speed"], accel=WALK_ACCEL,
    )
    b.wait_until_near(ped, ego, trigger=v["ped_trigger"])
    b.brake_near(ego, ped, trigger=16.0, decel=BRAKE_DECEL)
    return b.build()


def _build_7(cfg: ScenarioConfig, v: Mapping[str, float]) -> Scene:
    b = SceneBuilder()
    ego = b.add_lane_agent(
        EGO, (-40.0, -HALF), speed=v["ego_speed"], goal_x=ROAD_END, accel=EGO_ACCEL
    )
    lead = b.add_lane_agent(
        "adv0", (-40.0 + v["lead_gap"], -HALF), speed=v["lead_speed"], goal_x=ROAD_END
    )
    ped = b.add_waypoint_agent(
        "ped", (0.0, -PED_EDGE), [(0.0, PED_EDGE)],
        speed=0.0, cruise=v["ped_speed"], accel=WALK_ACCEL,
    )
    b.wait_until_near(ped, ego, trigger=v["ped_trigger"])
    b.brake_near(ego, lead, trigger=15.0, decel=BRAKE_DECEL)
    b.brake_near(ego, ped, trigger=15.0, decel=BRAKE_DECEL)
    b.brake_near(lead, ped, trigger=15.0, decel=BRAKE_DECEL)
    return b.build()


# (arm, maneuver) -> (entry lane offset, waypoint chain) per approach.
_APPROACHES = {
    ("north", "left"): (-HALF, [(-HALF, -HALF), (ARM_LENGTH, -HALF)]),
    ("north", "straight"): (-HALF, [(-HALF, -ARM_LENGTH)]),
    ("north", "right"): (-HALF, [(-HALF, HALF), (-ARM_LENGTH, HALF)]),
    ("east", "left"): (HALF, [(-HALF, HALF), (-HALF, -ARM_LENGTH)]),
    ("east", "straight"): (HALF, [(-ARM_LENGTH, HALF)]),
    ("east", "right"): (HALF, [(HALF, HALF), (HALF, ARM_LENGTH)]),
    ("south", "left"): (HALF, [(HALF, HALF), (-ARM_LENGTH, HALF)]),
    ("south", "straight"): (HALF, [(HALF, ARM_LENGTH)]),
    ("south", "right"): (HALF, [(HALF, -HALF), (ARM_LENGTH, -HALF)]),
}


def _intersection_start(arm: str, lane: float, dist: float):
    if arm == "north":
        return (lane, dist)
    if arm == "east":
        return (dist, lane)
    return (lane, -dist)  # south


def maneuver_from_value(value: float) -> str:
    """Decode a [0, 3) feature value into a turn choice."""
    code = min(max(int(math.floor(value)), 0), len(MANEUVERS) - 1)
    return MANEUVERS[code]


def _build_intersection(cfg: ScenarioConfig, v: Mapping[str, float]) -> Scene:
    b = SceneBuilder()
    ego = b.add_lane_agent(
        EGO, (-INTERSECTION_EGO_START, -HALF), speed=INTERSECTION_EGO_SPEED,
        goal_x=ARM_LENGTH, accel=EGO_ACCEL,
    )
    for i in range(cfg.adversaries):
        arm = ARM_CYCLE[i % len(ARM_CYCLE)]
        maneuver = maneuver_from_value(v[f"adv{i}_maneuver"])
        lane, waypoints = _APPROACHES[(arm, maneuver)]
        start = _intersection_start(arm, lane, v[f"adv{i}_distance"])
        adv = b.add_waypoint_agent(
            f"adv{i}", start, waypoints, speed=v[f"adv{i}_speed"]
        )
        b.brake_ahead(ego, adv, trigger=INTERSECTION_BRAKE_TRIGGER,
                      decel=HARD_DECEL, corridor=4.5)
    return b.build()


# Synthetic probe landscapes: the "probe" agent is parked at a distance
# that encodes whether the sampled point lies in the unsafe region, so
# the unsafe set is known exactly (margin -1 inside, +1 outside a 5 m
# floor).  Used to calibrate samplers, not part of the road catalog.


def _probe_scene(margin: float) -> Scene:
    b = SceneBuilder()
    b.add_lane_agent(EGO, (0.0, 0.0), speed=0.0, goal_x=math.inf)
    b.add_lane_agent("probe", (5.0 + margin, 0.0), speed=0.0, goal_x=math.inf)
    return b.build()


def band_unsafe(u: float) -> bool:
    return 0.3 <= u < 0.4


def _build_band(cfg: ScenarioConfig, v: Mapping[str, float]) -> Scene:
    return _probe_scene(-1.0 if band_unsafe(v["u"]) else 1.0)


def two_region_unsafe(u: float, w: float) -> bool:
    in_a = 0.1 <= u < 0.3 and 0.1 <= w < 0.3
    in_b = 0.6 <= u < 0.8 and 0.6 <= w < 0.8
    return in_a or in_b


def _build_two_region(cfg: ScenarioConfig, v: Mapping[str, float]) -> Scene:
    return _probe_scene(-1.0 if two_region_unsafe(v["u"], v["w"]) else 1.0)


# --------------------------------------------------------------- registry


# Three features per intersection adversary, built for the most
# adversaries; a config with m adversaries binds the first 3 * m.
_INTERSECTION_FEATURES = tuple(
    binding
    for i in range(MAX_INTERSECTION_ADVERSARIES)
    for binding in (
        Dimension(
            f"adv{i}_distance", 15.0 + 10.0 * i, 40.0 + 10.0 * i,
            "start distance from the intersection center (m); "
            "staggered per adversary so arrivals spread out",
        ),
        Dimension(f"adv{i}_speed", 3.0, 10.0, "cruise speed (m/s)"),
        Dimension(
            f"adv{i}_maneuver", 0.0, 3.0,
            "turn choice: [0,1) left, [1,2) straight, [2,3) right",
        ),
    )
)


REGISTRY: dict[str, ScenarioDef] = {}


def _register(defn: ScenarioDef):
    REGISTRY[defn.scenario_id] = defn


_register(
    ScenarioDef(
        "1",
        "Ego drives straight through a 4-way intersection, braking when an "
        "oncoming vehicle cuts across with a left turn.",
        True,
        (
            Dimension("ego_speed", 4.0, 12.0, "ego cruise speed (m/s)"),
            Dimension("ego_distance", 15.0, 55.0, "ego start distance (m)"),
            Dimension("adv_speed", 4.0, 12.0, "adversary cruise speed (m/s)"),
            Dimension("adv_distance", 15.0, 55.0, "adversary start distance (m)"),
        ),
        _build_1,
    )
)
_register(
    ScenarioDef(
        "2",
        "Ego turns left at a 4-way intersection, braking for an oncoming "
        "vehicle that drives straight through.",
        True,
        (
            Dimension("ego_speed", 4.0, 14.0, "ego cruise speed (m/s)"),
            Dimension("ego_distance", 15.0, 55.0, "ego start distance (m)"),
            Dimension("adv_speed", 4.0, 14.0, "adversary cruise speed (m/s)"),
            Dimension("adv_distance", 15.0, 55.0, "adversary start distance (m)"),
        ),
        _build_2,
    )
)
_register(
    ScenarioDef(
        "3",
        "Ego changes lanes to pass a slower leading vehicle and merges back "
        "once clear.",
        True,
        (
            Dimension("ego_speed", 8.0, 16.0, "ego cruise speed (m/s)"),
            Dimension("lead_speed", 2.0, 7.0, "lead cruise speed (m/s)"),
            Dimension("gap", 10.0, 40.0, "initial gap to the lead (m)"),
            Dimension("clear_margin", 1.0, 10.0, "merge-back margin (m)"),
        ),
        _build_3,
    )
)
_register(
    ScenarioDef(
        "4",
        "A faster trailing vehicle changes lanes to pass the ego and merges "
        "back in front of it.",
        True,
        (
            Dimension("ego_speed", 2.0, 8.0, "ego cruise speed (m/s)"),
            Dimension("adv_speed", 8.0, 16.0, "trailing vehicle speed (m/s)"),
            Dimension("gap", 10.0, 40.0, "initial gap behind the ego (m)"),
            Dimension("clear_margin", 1.0, 10.0, "merge-back margin (m)"),
        ),
        _build_4,
    )
)
_register(
    ScenarioDef(
        "5",
        "Ego starts passing a lead vehicle that speeds up to block the merge, "
        "forcing the ego to brake behind a slow vehicle in the passing lane.",
        True,
        (
            Dimension("ego_speed", 8.0, 14.0, "ego cruise speed (m/s)"),
            Dimension("lead_speed", 3.0, 7.0, "lead initial speed (m/s)"),
            Dimension("boost_speed", 8.0, 16.0, "lead speed once blocking (m/s)"),
            Dimension("lead_gap", 8.0, 25.0, "initial gap to the lead (m)"),
            Dimension(
                "blocker_gap", 25.0, 60.0, "gap to the slow passing-lane vehicle (m)"
            ),
        ),
        _build_5,
    )
)
_register(
    ScenarioDef(
        "6",
        "A waiting pedestrian steps into the road as the ego approaches; the "
        "ego brakes to avoid them.",
        True,
        (
            Dimension("ego_speed", 5.0, 12.0, "ego cruise speed (m/s)"),
            Dimension("approach", 20.0, 60.0, "ego start distance (m)"),
            Dimension("ped_speed", 0.8, 2.5, "pedestrian walking speed (m/s)"),
            Dimension(
                "ped_trigger", 8.0, 45.0, "ego distance that starts the crossing (m)"
            ),
        ),
        _build_6,
    )
)
_register(
    ScenarioDef(
        "7",
        "A pedestrian crosses in front of a two-vehicle platoon; the lead "
        "vehicle and the ego must both brake.",
        True,
        (
            Dimension("ego_speed", 5.0, 13.0, "ego cruise speed (m/s)"),
            Dimension("lead_gap", 8.0, 24.0, "gap to the lead vehicle (m)"),
            Dimension("lead_speed", 5.0, 13.0, "lead cruise speed (m/s)"),
            Dimension(
                "ped_trigger", 8.0, 45.0, "ego distance that starts the crossing (m)"
            ),
            Dimension("ped_speed", 0.8, 2.5, "pedestrian walking speed (m/s)"),
        ),
        _build_7,
    )
)
_register(
    ScenarioDef(
        "intersection",
        "Ego drives straight through a 4-way intersection while m adversaries "
        "approach from cycling arms, each with a sampled distance, speed, and "
        "turn choice.",
        True,
        _INTERSECTION_FEATURES,
        _build_intersection,
    )
)
_register(
    ScenarioDef(
        "band",
        "Synthetic probe landscape: unsafe iff u lies in [0.3, 0.4), i.e. "
        "exactly one bucket of the first dimension at N=10.",
        False,
        (
            Dimension("u", 0.0, 1.0, "probe coordinate with the unsafe band"),
            Dimension("w", 0.0, 1.0, "inert probe coordinate"),
        ),
        _build_band,
    )
)
_register(
    ScenarioDef(
        "two_region",
        "Synthetic probe landscape with two separated unsafe squares, "
        "[0.1,0.3)^2 and [0.6,0.8)^2.",
        False,
        (
            Dimension("u", 0.0, 1.0, "probe coordinate 1"),
            Dimension("w", 0.0, 1.0, "probe coordinate 2"),
        ),
        _build_two_region,
    )
)


# --------------------------------------------------------------- public API


def scenario_ids(catalog_only: bool = True) -> tuple[str, ...]:
    return tuple(
        sid for sid, d in REGISTRY.items() if d.in_catalog or not catalog_only
    )


def list_scenarios() -> list[dict]:
    """Static catalog of the road scenarios with their feature ranges."""
    out = []
    for sid, d in REGISTRY.items():
        if not d.in_catalog:
            continue
        cfg = ScenarioConfig(sid)
        out.append(
            {
                "id": sid,
                "description": d.summary,
                "agents": (EGO,) + monitored_agents(cfg),
                "features": [
                    {
                        "name": f.name,
                        "lo": f.lo,
                        "hi": f.hi,
                        "description": f.description,
                    }
                    for f in feature_bindings(cfg)
                ],
            }
        )
    return out


def feature_bindings(cfg: ScenarioConfig) -> tuple[Dimension, ...]:
    features = REGISTRY[cfg.scenario_id].features
    if cfg.scenario_id == "intersection":
        return features[: 3 * cfg.adversaries]
    return features


def monitored_agents(cfg: ScenarioConfig) -> tuple[str, ...]:
    """Every non-ego agent; builders add the same agents whatever the values."""
    lows = [f.lo for f in feature_bindings(cfg)]
    return build_scene(cfg, lows).agents[1:]


def default_feature_space(cfg: ScenarioConfig) -> FeatureSpace:
    return FeatureSpace(feature_bindings(cfg))


def default_specification(cfg: ScenarioConfig) -> Specification:
    return Specification([MinSeparation(a) for a in monitored_agents(cfg)])


def bind_values(cfg: ScenarioConfig, values: Sequence[float]) -> dict[str, float]:
    bindings = feature_bindings(cfg)
    if len(values) != len(bindings):
        raise ConfigError(
            f"scenario {cfg.scenario_id!r} needs {len(bindings)} feature values "
            f"({[f.name for f in bindings]}), got {len(values)}"
        )
    return {f.name: float(v) for f, v in zip(bindings, values)}


def build_scene(cfg: ScenarioConfig, values: Sequence[float]) -> Scene:
    return REGISTRY[cfg.scenario_id].builder(cfg, bind_values(cfg, values))


def simulate(cfg: ScenarioConfig, sample: SampleVector | Sequence[float]) -> Trajectory:
    """Run one deterministic simulation of a sampled scenario."""
    values = sample.values if isinstance(sample, SampleVector) else sample
    scene = build_scene(cfg, values)
    pos, heading, speed, code = run_scene(scene, dt=cfg.dt, max_frames=cfg.max_frames)
    return Trajectory(
        scene.agents, pos, heading, speed, cfg.dt,
        TERMINATIONS[code], max_frames=cfg.max_frames,
    )


def simulate_minima(
    cfg: ScenarioConfig, sample: SampleVector | Sequence[float]
) -> SeparationMinima:
    """simulate() with recording off: each agent's minimum separation.

    Every metric reads only these, and they equal the trajectory's bit for
    bit, so a campaign evaluates the same rho without a trajectory.
    """
    values = sample.values if isinstance(sample, SampleVector) else sample
    scene = build_scene(cfg, values)
    legs, counts, code = run_scene(
        scene, dt=cfg.dt, max_frames=cfg.max_frames, minima=True
    )
    return SeparationMinima(
        scene.agents, min_separations(legs, counts).tolist(), TERMINATIONS[code]
    )


def load_known_unsafe(scenario_id: str) -> dict:
    """Shipped feature values known to violate at least one clearance metric.

    Returns {"values": {name: float}, "rho": [...], ...}; the values were
    located by a coarse grid search over each scenario's feature ranges and
    are frozen as package data so smoke tests have a guaranteed hit.
    """
    path = resources.files("falsify.data").joinpath("known_unsafe.json")
    table = json.loads(path.read_text())
    if scenario_id not in table:
        raise ConfigError(
            f"no known-unsafe fixture for scenario {scenario_id!r}; "
            f"have {sorted(table)}"
        )
    return table[scenario_id]


def known_unsafe_values(cfg: ScenarioConfig) -> list[float]:
    """The known-unsafe fixture as a value list in feature order."""
    fixture = load_known_unsafe(cfg.scenario_id)
    stored = fixture["values"]
    bindings = feature_bindings(cfg)
    missing = [f.name for f in bindings if f.name not in stored]
    if missing:
        raise ConfigError(
            f"fixture for scenario {cfg.scenario_id!r} was recorded with "
            f"{fixture['scenario']} and lacks features {missing}"
        )
    return [stored[f.name] for f in bindings]
