"""Fixed-step kinematic integrator for scripted multi-agent scenes.

This is the hot loop of every simulation: forward-Euler point-mass
updates plus a small set of reactive rules (brake when near a target,
wait until a target approaches, speed up when a target drifts laterally,
change lanes around a target).

The loop has two sources.  ``_integrate_impl`` works on numpy arrays and
is what numba compiles when it imports (FALSIFY_NUMBA=0 skips it).
``integrate_python``, the interpreted backend, is the same arithmetic in
the same order over Python lists and floats, because in the interpreter
a numpy scalar index costs several times a list lookup.  A change to one
must be made to the other: tests/test_kinematics.py runs
``_integrate_impl`` uncompiled as the oracle and requires bit-identical
trajectories from ``integrate_python`` (and from the compiled kernel
where numba imports).

Agents come in two steering modes.  Waypoint agents head straight for
their next waypoint and advance through the list on capture.  Lane
agents travel in +x and steer toward a desired lateral offset with a
proportional heading law, which is what the lane-change rule perturbs.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

logger = logging.getLogger(__name__)

MODE_WAYPOINT = 0
MODE_LANE = 1

RULE_NONE = 0
RULE_BRAKE_NEAR = 1        # f0=trigger distance, f1=decel rate
RULE_WAIT_UNTIL_NEAR = 2   # f0=trigger distance (latched once released)
RULE_BOOST_ON_LATERAL = 3  # f0=offset threshold, f1=boosted speed, f2=reference y
RULE_LANE_CHANGE = 4       # f0=trigger distance, f1=target lane y, f2=clear-ahead margin
RULE_BRAKE_AHEAD = 5       # f0=trigger distance, f1=decel rate, f2=corridor half-width

CODE_TIME_LIMIT = 0
CODE_CRASH = 1
CODE_CLEARED = 2

CRASH_DISTANCE = 0.5
CAPTURE_RADIUS = 1.5
LATERAL_GAIN = 0.15

MAX_RULES = 8
MAX_WAYPOINTS = 4

ENV_FLAG = "FALSIFY_NUMBA"


def _integrate_impl(
    mode,
    pos,
    heading,
    speed,
    cruise,
    accel,
    waypoints,
    wp_count,
    goal_x,
    lane_y,
    rule_type,
    rule_target,
    rule_f,
    dt,
    max_frames,
    crash_dist,
    capture_radius,
    lat_gain,
    out_pos,
    out_heading,
    out_speed,
):
    # The numba source, and run uncompiled, the oracle for integrate_python.
    n = mode.shape[0]
    n_rules = rule_type.shape[1]
    wp_idx = np.zeros(n, dtype=np.int64)
    done = np.zeros(n, dtype=np.int64)
    rule_state = np.zeros((n, n_rules), dtype=np.float64)
    prev = np.empty((n, 2), dtype=np.float64)
    frames = 0
    term = CODE_TIME_LIMIT

    for k in range(max_frames):
        for a in range(n):
            out_pos[k, a, 0] = pos[a, 0]
            out_pos[k, a, 1] = pos[a, 1]
            out_heading[k, a] = heading[a]
            out_speed[k, a] = speed[a]
        frames = k + 1

        # Goal bookkeeping on the recorded state.
        for a in range(n):
            if mode[a] == MODE_WAYPOINT:
                while wp_idx[a] < wp_count[a] and (
                    math.hypot(
                        waypoints[a, wp_idx[a], 0] - pos[a, 0],
                        waypoints[a, wp_idx[a], 1] - pos[a, 1],
                    )
                    < capture_radius
                ):
                    wp_idx[a] += 1
                if wp_idx[a] >= wp_count[a]:
                    done[a] = 1
            else:
                if pos[a, 0] >= goal_x[a]:
                    done[a] = 1

        crashed = False
        for a in range(1, n):
            if (
                math.hypot(pos[a, 0] - pos[0, 0], pos[a, 1] - pos[0, 1])
                < crash_dist
            ):
                crashed = True
        if crashed:
            term = CODE_CRASH
            break
        all_done = True
        for a in range(n):
            if done[a] == 0:
                all_done = False
        if all_done:
            term = CODE_CLEARED
            break
        if k == max_frames - 1:
            term = CODE_TIME_LIMIT
            break

        # Controls read the frame-k snapshot so agent order cannot matter.
        for a in range(n):
            prev[a, 0] = pos[a, 0]
            prev[a, 1] = pos[a, 1]

        for a in range(n):
            target_speed = cruise[a]
            braking = False
            brake_rate = 0.0
            holding = False
            y_des = lane_y[a]
            for r in range(n_rules):
                rt = rule_type[a, r]
                if rt == RULE_NONE:
                    continue
                tgt = rule_target[a, r]
                f0 = rule_f[a, r, 0]
                f1 = rule_f[a, r, 1]
                f2 = rule_f[a, r, 2]
                gap = math.hypot(prev[tgt, 0] - prev[a, 0], prev[tgt, 1] - prev[a, 1])
                if rt == RULE_BRAKE_NEAR:
                    if gap < f0:
                        braking = True
                        if f1 > brake_rate:
                            brake_rate = f1
                elif rt == RULE_WAIT_UNTIL_NEAR:
                    if rule_state[a, r] == 0.0 and gap < f0:
                        rule_state[a, r] = 1.0
                    if rule_state[a, r] == 0.0:
                        holding = True
                elif rt == RULE_BOOST_ON_LATERAL:
                    if rule_state[a, r] == 0.0 and abs(prev[tgt, 1] - f2) > f0:
                        rule_state[a, r] = 1.0
                    if rule_state[a, r] == 1.0:
                        target_speed = f1
                elif rt == RULE_LANE_CHANGE:
                    if rule_state[a, r] == 0.0 and gap < f0:
                        rule_state[a, r] = 1.0
                    if rule_state[a, r] == 1.0 and prev[a, 0] > prev[tgt, 0] + f2:
                        rule_state[a, r] = 2.0
                    if rule_state[a, r] == 1.0:
                        y_des = f1
                elif rt == RULE_BRAKE_AHEAD:
                    dx = prev[tgt, 0] - prev[a, 0]
                    dy = prev[tgt, 1] - prev[a, 1]
                    along = dx * math.cos(heading[a]) + dy * math.sin(heading[a])
                    cross = -dx * math.sin(heading[a]) + dy * math.cos(heading[a])
                    if 0.0 < along < f0 and abs(cross) < f2:
                        braking = True
                        if f1 > brake_rate:
                            brake_rate = f1
            if holding:
                target_speed = 0.0
            if braking:
                target_speed = 0.0

            if mode[a] == MODE_WAYPOINT:
                if wp_idx[a] < wp_count[a]:
                    heading[a] = math.atan2(
                        waypoints[a, wp_idx[a], 1] - pos[a, 1],
                        waypoints[a, wp_idx[a], 0] - pos[a, 0],
                    )
            else:
                heading[a] = math.atan2(lat_gain * (y_des - pos[a, 1]), 1.0)

            if speed[a] < target_speed:
                s = speed[a] + accel[a] * dt
                speed[a] = s if s < target_speed else target_speed
            elif speed[a] > target_speed:
                rate = brake_rate if braking else accel[a]
                s = speed[a] - rate * dt
                speed[a] = s if s > target_speed else target_speed
                if speed[a] < 0.0:
                    speed[a] = 0.0

            pos[a, 0] += speed[a] * math.cos(heading[a]) * dt
            pos[a, 1] += speed[a] * math.sin(heading[a]) * dt

    return frames, term


def integrate_python(
    mode,
    pos,
    heading,
    speed,
    cruise,
    accel,
    waypoints,
    wp_count,
    goal_x,
    lane_y,
    rule_type,
    rule_target,
    rule_f,
    dt,
    max_frames,
    crash_dist,
    capture_radius,
    lat_gain,
):
    """The interpreted kernel: ``_integrate_impl`` over lists and floats.

    Takes the Scene arrays as nested lists (``ndarray.tolist()``) and
    returns ``(positions, headings, speeds, term)``: headings and speeds
    hold one list per recorded frame, positions every x and y flat, frame
    by frame.  Every float goes through the same operations in the same
    order as in ``_integrate_impl``, so the trajectories are bit-identical.
    Each frame builds fresh state lists, so a recorded frame is never
    written again and the frame-k snapshot the controls read is simply
    the previous frame's lists.
    """
    hypot, atan2, cos, sin = math.hypot, math.atan2, math.cos, math.sin
    n = len(mode)
    pos = [tuple(p) for p in pos]
    agents = []
    for a in range(n):
        rules = [
            (rt, tgt, *f)
            for rt, tgt, f in zip(rule_type[a], rule_target[a], rule_f[a])
            if rt != RULE_NONE
        ]
        agents.append((
            a, mode[a] == MODE_WAYPOINT, cruise[a], accel[a], lane_y[a],
            rules, [0.0] * len(rules),
        ))
    wp_idx = [0] * n
    pending = list(range(n))  # agents whose goal is not reached yet
    # Positions are recorded flat, as they are computed: numpy converts a
    # flat list of floats far faster than nested (x, y) tuples.
    rec_pos = [c for p in pos for c in p]
    record = rec_pos.append
    rec_heading, rec_speed = [], []
    term = CODE_TIME_LIMIT

    for k in range(max_frames):
        rec_heading.append(heading)
        rec_speed.append(speed)

        # Goal bookkeeping on the recorded state.
        still = []
        for a in pending:
            x, y = pos[a]
            if mode[a] == MODE_WAYPOINT:
                i = wp_idx[a]
                count = wp_count[a]
                wps = waypoints[a]
                while i < count and (
                    hypot(wps[i][0] - x, wps[i][1] - y) < capture_radius
                ):
                    i += 1
                wp_idx[a] = i
                if i < count:
                    still.append(a)
            elif not x >= goal_x[a]:
                still.append(a)
        pending = still

        x0, y0 = pos[0]
        crashed = False
        for x, y in pos[1:]:
            if hypot(x - x0, y - y0) < crash_dist:
                crashed = True
                break
        if crashed:
            term = CODE_CRASH
            break
        if not pending:
            term = CODE_CLEARED
            break
        if k == max_frames - 1:
            term = CODE_TIME_LIMIT
            break

        # Controls read the frame-k snapshot (pos) so agent order cannot matter.
        new_pos, new_heading, new_speed = [], [], []
        for a, waypoint, target_speed, acc, y_des, rules, state in agents:
            x, y = pos[a]
            h = heading[a]
            braking = False
            brake_rate = 0.0
            holding = False
            for r, (rt, tgt, f0, f1, f2) in enumerate(rules):
                tx, ty = pos[tgt]
                if rt == RULE_BRAKE_AHEAD:
                    dx = tx - x
                    dy = ty - y
                    ch = cos(h)
                    sh = sin(h)
                    along = dx * ch + dy * sh
                    cross = -dx * sh + dy * ch
                    if 0.0 < along < f0 and abs(cross) < f2:
                        braking = True
                        if f1 > brake_rate:
                            brake_rate = f1
                elif rt == RULE_BRAKE_NEAR:
                    if hypot(tx - x, ty - y) < f0:
                        braking = True
                        if f1 > brake_rate:
                            brake_rate = f1
                elif rt == RULE_WAIT_UNTIL_NEAR:
                    if state[r] == 0.0 and hypot(tx - x, ty - y) < f0:
                        state[r] = 1.0
                    if state[r] == 0.0:
                        holding = True
                elif rt == RULE_BOOST_ON_LATERAL:
                    if state[r] == 0.0 and abs(ty - f2) > f0:
                        state[r] = 1.0
                    if state[r] == 1.0:
                        target_speed = f1
                elif rt == RULE_LANE_CHANGE:
                    if state[r] == 0.0 and hypot(tx - x, ty - y) < f0:
                        state[r] = 1.0
                    if state[r] == 1.0 and x > tx + f2:
                        state[r] = 2.0
                    if state[r] == 1.0:
                        y_des = f1
            if holding or braking:
                target_speed = 0.0

            if waypoint:
                i = wp_idx[a]
                if i < wp_count[a]:
                    wx, wy = waypoints[a][i]
                    h = atan2(wy - y, wx - x)
            else:
                h = atan2(lat_gain * (y_des - y), 1.0)

            v = speed[a]
            if v < target_speed:
                s = v + acc * dt
                v = s if s < target_speed else target_speed
            elif v > target_speed:
                s = v - (brake_rate if braking else acc) * dt
                v = s if s > target_speed else target_speed
                if v < 0.0:
                    v = 0.0

            ch = cos(h)
            sh = sin(h)
            x += v * ch * dt
            y += v * sh * dt
            new_pos.append((x, y))
            record(x)
            record(y)
            new_heading.append(h)
            new_speed.append(v)
        pos, heading, speed = new_pos, new_heading, new_speed

    return rec_pos, rec_heading, rec_speed, term


def numba_requested() -> bool:
    """Whether the env flag allows the compiled backend (default yes)."""
    flag = os.environ.get(ENV_FLAG, "1").strip().lower()
    return flag not in ("0", "false", "no", "off")


def _compile_kernel():
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is an install-time choice
        logger.info("numba unavailable; using the Python integrator")
        return None
    return njit(cache=True, nogil=True)(_integrate_impl)


integrate_numba = _compile_kernel() if numba_requested() else None


def active_backend() -> str:
    return "numba" if integrate_numba is not None else "python"


def kernel_functions() -> dict:
    """The available integrator backends by name; run_scene calls them."""
    out = {"python": integrate_python}
    if integrate_numba is not None:
        out["numba"] = integrate_numba
    return out


@dataclass
class Scene:
    """Initial conditions plus behavior wiring for one simulation.

    Agent 0 is always the ego vehicle.  Built via SceneBuilder; arrays
    are laid out for direct handoff to the integrator.
    """

    agents: tuple[str, ...]
    mode: np.ndarray
    pos: np.ndarray
    heading: np.ndarray
    speed: np.ndarray
    cruise: np.ndarray
    accel: np.ndarray
    waypoints: np.ndarray
    wp_count: np.ndarray
    goal_x: np.ndarray
    lane_y: np.ndarray
    rule_type: np.ndarray
    rule_target: np.ndarray
    rule_f: np.ndarray


class SceneBuilder:
    """Assembles a Scene one agent at a time; the first agent is the ego."""

    def __init__(self):
        self._names: list[str] = []
        self._mode: list[int] = []
        self._pos: list[tuple[float, float]] = []
        self._speed: list[float] = []
        self._cruise: list[float] = []
        self._accel: list[float] = []
        self._waypoints: list[list[tuple[float, float]]] = []
        self._goal_x: list[float] = []
        self._lane_y: list[float] = []
        self._rules: list[list[tuple[int, int, float, float, float]]] = []

    def _add(self, name, mode, pos, speed, cruise, accel, waypoints, goal_x, lane_y):
        if name in self._names:
            raise DomainError(f"duplicate agent name {name!r}")
        if speed < 0 or cruise < 0 or accel <= 0:
            raise DomainError(
                f"agent {name!r}: speeds must be >= 0 and accel > 0"
            )
        self._names.append(name)
        self._mode.append(mode)
        self._pos.append((float(pos[0]), float(pos[1])))
        self._speed.append(float(speed))
        self._cruise.append(float(cruise))
        self._accel.append(float(accel))
        self._waypoints.append([(float(x), float(y)) for x, y in waypoints])
        self._goal_x.append(float(goal_x))
        self._lane_y.append(float(lane_y))
        self._rules.append([])
        return len(self._names) - 1

    def add_waypoint_agent(self, name, pos, waypoints, speed, cruise=None, accel=3.0):
        """Agent that chases a waypoint list and is done when it runs out."""
        if not waypoints:
            raise DomainError(f"agent {name!r}: waypoint agents need >= 1 waypoint")
        if len(waypoints) > MAX_WAYPOINTS:
            raise DomainError(
                f"agent {name!r}: at most {MAX_WAYPOINTS} waypoints supported"
            )
        cruise = speed if cruise is None else cruise
        return self._add(
            name, MODE_WAYPOINT, pos, speed, cruise, accel, waypoints,
            goal_x=math.inf, lane_y=pos[1],
        )

    def add_lane_agent(self, name, pos, speed, goal_x, cruise=None, accel=3.0):
        """Agent driving in +x holding its starting lateral offset."""
        cruise = speed if cruise is None else cruise
        return self._add(
            name, MODE_LANE, pos, speed, cruise, accel, [],
            goal_x=goal_x, lane_y=pos[1],
        )

    def _add_rule(self, agent, rule, target, f0, f1=0.0, f2=0.0):
        for idx in (agent, target):
            if not 0 <= idx < len(self._names):
                raise DomainError(f"rule references unknown agent index {idx}")
        if agent == target:
            raise DomainError("a rule cannot target its own agent")
        if len(self._rules[agent]) >= MAX_RULES:
            raise DomainError(f"agent {self._names[agent]!r} has too many rules")
        self._rules[agent].append((rule, target, float(f0), float(f1), float(f2)))

    def brake_near(self, agent, target, trigger, decel):
        if trigger <= 0 or decel <= 0:
            raise DomainError("brake rule needs trigger > 0 and decel > 0")
        self._add_rule(agent, RULE_BRAKE_NEAR, target, trigger, decel)

    def brake_ahead(self, agent, target, trigger, decel, corridor):
        """Brake only for targets ahead of the heading within a lateral corridor."""
        if trigger <= 0 or decel <= 0 or corridor <= 0:
            raise DomainError(
                "brake-ahead rule needs trigger, decel and corridor > 0"
            )
        self._add_rule(agent, RULE_BRAKE_AHEAD, target, trigger, decel, corridor)

    def wait_until_near(self, agent, target, trigger):
        if trigger < 0:
            raise DomainError("wait rule needs trigger >= 0")
        self._add_rule(agent, RULE_WAIT_UNTIL_NEAR, target, trigger)

    def boost_on_lateral(self, agent, target, offset_threshold, boost_speed, ref_y):
        if offset_threshold <= 0 or boost_speed < 0:
            raise DomainError("boost rule needs threshold > 0 and speed >= 0")
        self._add_rule(
            agent, RULE_BOOST_ON_LATERAL, target, offset_threshold, boost_speed, ref_y
        )

    def lane_change(self, agent, target, trigger, to_y, clear_margin):
        if self._mode[agent] != MODE_LANE:
            raise DomainError("lane changes apply to lane agents only")
        if trigger <= 0 or clear_margin < 0:
            raise DomainError("lane change needs trigger > 0 and clear margin >= 0")
        self._add_rule(agent, RULE_LANE_CHANGE, target, trigger, to_y, clear_margin)

    def build(self) -> Scene:
        n = len(self._names)
        if n < 1:
            raise DomainError("scene needs at least one agent")
        n_rules = max(1, max(len(r) for r in self._rules))
        waypoints = np.zeros((n, MAX_WAYPOINTS, 2))
        wp_count = np.zeros(n, dtype=np.int64)
        for a, wps in enumerate(self._waypoints):
            wp_count[a] = len(wps)
            for w, (x, y) in enumerate(wps):
                waypoints[a, w] = (x, y)
        rule_type = np.zeros((n, n_rules), dtype=np.int64)
        rule_target = np.zeros((n, n_rules), dtype=np.int64)
        rule_f = np.zeros((n, n_rules, 3))
        for a, rules in enumerate(self._rules):
            for r, (rt, tgt, f0, f1, f2) in enumerate(rules):
                rule_type[a, r] = rt
                rule_target[a, r] = tgt
                rule_f[a, r] = (f0, f1, f2)
        heading = np.zeros(n)
        for a in range(n):
            if self._mode[a] == MODE_WAYPOINT:
                wx, wy = self._waypoints[a][0]
                heading[a] = math.atan2(wy - self._pos[a][1], wx - self._pos[a][0])
        return Scene(
            agents=tuple(self._names),
            mode=np.array(self._mode, dtype=np.int64),
            pos=np.array(self._pos, dtype=float).reshape(n, 2),
            heading=heading,
            speed=np.array(self._speed, dtype=float),
            cruise=np.array(self._cruise, dtype=float),
            accel=np.array(self._accel, dtype=float),
            waypoints=waypoints,
            wp_count=wp_count,
            goal_x=np.array(self._goal_x, dtype=float),
            lane_y=np.array(self._lane_y, dtype=float),
            rule_type=rule_type,
            rule_target=rule_target,
            rule_f=rule_f,
        )


def run_scene(
    scene: Scene,
    dt: float = 0.1,
    max_frames: int = 300,
    backend: str | None = None,
):
    """Integrate a scene; returns (positions, headings, speeds, termination code).

    Output arrays hold the recorded frames only.  ``backend`` forces
    "python" or "numba"; default follows the environment flag.
    """
    if not dt > 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if max_frames < 1:
        raise DomainError(f"max_frames must be >= 1, got {max_frames}")
    fns = kernel_functions()
    if backend is None:
        backend = active_backend()
    elif backend not in fns:
        raise DomainError(f"backend {backend!r} unavailable; have {sorted(fns)}")
    if backend == "numba":
        return _run_arrays(integrate_numba, scene, float(dt), int(max_frames))
    pos, heading, speed, code = integrate_python(
        scene.mode.tolist(),
        scene.pos.tolist(),
        scene.heading.tolist(),
        scene.speed.tolist(),
        scene.cruise.tolist(),
        scene.accel.tolist(),
        scene.waypoints.tolist(),
        scene.wp_count.tolist(),
        scene.goal_x.tolist(),
        scene.lane_y.tolist(),
        scene.rule_type.tolist(),
        scene.rule_target.tolist(),
        scene.rule_f.tolist(),
        float(dt),
        int(max_frames),
        CRASH_DISTANCE,
        CAPTURE_RADIUS,
        LATERAL_GAIN,
    )
    return (
        np.array(pos, dtype=np.float64).reshape(len(speed), len(scene.agents), 2),
        np.array(heading, dtype=np.float64),
        np.array(speed, dtype=np.float64),
        code,
    )


def _run_arrays(fn, scene: Scene, dt: float, max_frames: int):
    """Run an array kernel (``_integrate_impl``, compiled or not) on a scene."""
    n = len(scene.agents)
    out_pos = np.empty((max_frames, n, 2))
    out_heading = np.empty((max_frames, n))
    out_speed = np.empty((max_frames, n))
    frames, code = fn(
        scene.mode,
        scene.pos.copy(),
        scene.heading.copy(),
        scene.speed.copy(),
        scene.cruise,
        scene.accel,
        scene.waypoints,
        scene.wp_count,
        scene.goal_x,
        scene.lane_y,
        scene.rule_type,
        scene.rule_target,
        scene.rule_f,
        dt,
        max_frames,
        CRASH_DISTANCE,
        CAPTURE_RADIUS,
        LATERAL_GAIN,
        out_pos,
        out_heading,
        out_speed,
    )
    return out_pos[:frames], out_heading[:frames], out_speed[:frames], int(code)
