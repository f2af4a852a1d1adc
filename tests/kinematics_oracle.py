"""The reference integrator that the generated kernel is tested against.

``integrate_arrays`` is the whole kinematic step written once, plainly,
over padded numpy arrays: one loop over frames, one over agents, and one
over each agent's rules, with every rule type tested at run time.
``oracle`` packs a Scene into those arrays and returns what
``kinematics.run_scene`` returns.  The package never runs it.

The generated kernel (``kinematics._kernel_source``) must do the same
arithmetic in the same order as ``integrate_arrays``: the same float
operations on the same operands, so the two agree bit for bit, signs of
zero included.  A change to the kernel's arithmetic is made here too, and
the ``*_matches_oracle*`` tests in test_kinematics.py check the two
against each other.
"""

import math

import numpy as np

from falsify.kinematics import (
    CAPTURE_RADIUS,
    CODE_CLEARED,
    CODE_CRASH,
    CODE_TIME_LIMIT,
    CRASH_DISTANCE,
    LATERAL_GAIN,
    MAX_WAYPOINTS,
    MODE_WAYPOINT,
    RULE_BOOST_ON_LATERAL,
    RULE_BRAKE_AHEAD,
    RULE_BRAKE_NEAR,
    RULE_LANE_CHANGE,
    RULE_NONE,
    RULE_WAIT_UNTIL_NEAR,
    Scene,
)


def integrate_arrays(
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


def oracle(scene: Scene, dt: float = 0.1, max_frames: int = 300):
    """Run ``integrate_arrays`` on a scene; returns what ``run_scene`` returns.

    Packs the Scene's lists into fresh arrays: waypoints padded to
    MAX_WAYPOINTS, and each agent's rules padded with RULE_NONE slots to
    the longest rule list.
    """
    n = len(scene.agents)
    n_rules = max(1, max(map(len, scene.rules)))
    waypoints = np.zeros((n, MAX_WAYPOINTS, 2))
    wp_count = np.zeros(n, dtype=np.int64)
    rule_type = np.zeros((n, n_rules), dtype=np.int64)
    rule_target = np.zeros((n, n_rules), dtype=np.int64)
    rule_f = np.zeros((n, n_rules, 3))
    for a in range(n):
        wp_count[a] = len(scene.waypoints[a])
        for w, xy in enumerate(scene.waypoints[a]):
            waypoints[a, w] = xy
        for r, (rt, tgt, *floats) in enumerate(scene.rules[a]):
            rule_type[a, r] = rt
            rule_target[a, r] = tgt
            rule_f[a, r] = floats
    out_pos = np.empty((max_frames, n, 2))
    out_heading = np.empty((max_frames, n))
    out_speed = np.empty((max_frames, n))
    f64 = np.float64
    frames, code = integrate_arrays(
        np.array(scene.mode, dtype=np.int64),
        np.array(scene.pos, dtype=f64).reshape(n, 2),
        np.array(scene.heading, dtype=f64), np.array(scene.speed, dtype=f64),
        np.array(scene.cruise, dtype=f64), np.array(scene.accel, dtype=f64),
        waypoints, wp_count,
        np.array(scene.goal_x, dtype=f64), np.array(scene.lane_y, dtype=f64),
        rule_type, rule_target, rule_f,
        dt, max_frames, CRASH_DISTANCE, CAPTURE_RADIUS, LATERAL_GAIN,
        out_pos, out_heading, out_speed,
    )
    return out_pos[:frames], out_heading[:frames], out_speed[:frames], int(code)
