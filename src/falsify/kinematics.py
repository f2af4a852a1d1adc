"""Fixed-step kinematic integrator for scripted multi-agent scenes.

This is the hot loop of every simulation: forward-Euler point-mass
updates plus a small set of reactive rules (brake when near a target,
wait until a target approaches, speed up when a target drifts laterally,
change lanes around a target).

A Scene is the builder's Python lists: one entry per agent, and each
agent's rules as ``(type, target, f0, f1, f2)`` tuples.  There is one
kernel.  For each scene structure (agent count, modes, and each rule's
type and target) ``_kernel_source`` writes one straight-line Python
function that reads the Scene's lists directly, with the agent state in
locals; ``_compiled`` compiles and caches it, and ``run_scene`` runs it.
Its reference is tests/kinematics_oracle.py, the same loop written
plainly over padded numpy arrays, which the package never runs; the
``*_matches_oracle*`` tests in tests/test_kinematics.py require
bit-identical trajectories from the generated kernel.

``run_scene`` has two outputs, picked by its ``minima`` flag.  By
default it records every frame: positions, headings, speeds and the
termination code, which ``scenarios.simulate`` wraps in a Trajectory.
With ``minima`` it records nothing: the generated kernel keeps, for each
agent, only the legs from the ego near that agent's running minimum
separation, and ``min_separations`` reduces them to each agent's minimum,
bit for bit the trajectory's.  That is what a campaign's simulator runs.

Agents come in two steering modes.  Waypoint agents head straight for
their next waypoint and advance through the list on capture.  Lane
agents travel in +x and steer toward a desired lateral offset with a
proportional heading law, which is what the lane-change rule perturbs.
"""

from __future__ import annotations

import itertools
import linecache
import math
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

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


# Rule names by type, as a generated kernel's file name spells them.
_RULE_NAMES = ("none", "brake_near", "wait_until_near", "boost_on_lateral",
               "lane_change", "brake_ahead")
_BRAKES = {RULE_BRAKE_NEAR, RULE_BRAKE_AHEAD}
_GAPS = {RULE_BRAKE_NEAR, RULE_WAIT_UNTIL_NEAR, RULE_LANE_CHANGE}  # gap < f0

# Compiled kernels kept, one per scene structure; a catalog scenario has one.
KERNEL_CACHE_SIZE = 64
_kernels: dict = {}
_kernels_lock = threading.Lock()


def _structure(scene):
    """The ints a generated kernel depends on: ``(modes, rules)``.

    ``rules[a]`` holds ``(type, target)`` for each of agent a's rules; the
    target is another agent.
    Every value is checked, because the kernel source is built from these
    ints and nothing else.
    """
    n = len(scene.mode)
    if n < 1 or len(scene.rules) != n:
        raise DomainError("scene lists need one entry per agent and >= 1 agent")
    if any(m not in (MODE_WAYPOINT, MODE_LANE) for m in scene.mode):
        raise DomainError(f"unknown agent mode in {scene.mode!r}")
    rules = []
    for a, agent_rules in enumerate(scene.rules):
        for rt, tgt, *_ in agent_rules:
            if rt not in range(1, len(_RULE_NAMES)) or tgt not in range(n) or tgt == a:
                raise DomainError(f"agent {a}: bad rule type {rt!r} or target {tgt!r}")
        rules.append(tuple((int(rt), int(tgt)) for rt, tgt, *_ in agent_rules))
    return tuple(int(m) for m in scene.mode), tuple(rules)


# What a minima kernel keeps: legs whose q is within TIE of the running
# minimum; a q below TINY (or NaN) keeps every later frame.
TIE = 1.0 + 2.0 ** -48
TINY = 2.0 ** -900
# The ego's brake-ahead rule with trigger f0 and corridor f2 can fire only
# on a target whose q is below fl(f0*f0 + f2*f2) * REACH.
REACH = 1.0 + 2.0 ** -20
# The minima kernel runs its frames in chunks of CHUNK and, between two,
# stops once the result is decided (``_decide``).  Its bounds on where an
# agent can be carry SLACK per frame for rounding, which holds while every
# coordinate stays below COORD_BOUND in magnitude.
CHUNK = 32
SLACK = 2.0 ** -28
COORD_BOUND = 2.0 ** 20
SHORT = 1.0 - 2.0 ** -20


def _near(dx, dy, r, neg_r) -> str:
    """Source for ``hypot(dx, dy) < r``, exactly, guarded as ``_kernel_source`` argues.

    hypot is never below max(|dx|, |dy|), so with a leg outside (-r, r)
    the test is false without the call.
    """
    return (f"{neg_r} < (dx := {dx}) < {r} and {neg_r} < (dy := {dy}) < {r}"
            f" and hypot(dx, dy) < {r}")


def _ahead(dx, dy, co, sn, f0, f2) -> str:
    """Source for the brake-ahead test: the target lies within f0 ahead, f2 across.

    ``(dx, dy)`` runs from the braking agent to its target, and ``co, sn``
    are the agent's cos and sin of its heading.
    """
    return (f"0.0 < (dx := {dx}) * {co} + (dy := {dy}) * {sn} < {f0}"
            f" and abs(-dx * {sn} + dy * {co}) < {f2}")


def _reach(emit, depth, lim, f0, f2):
    """Emit ``lim = fl(f0*f0 + f2*f2) * REACH``, or NaN where it proves nothing.

    A NaN ``lim`` makes the gate ``not q >= lim`` pass every target; see
    ``_kernel_source`` for why a q at or above a finite ``lim`` cannot fire.
    """
    emit(depth, f"{lim} = ({f0} * {f0} + {f2} * {f2}) * reach",
         f"if not tiny <= {lim} < inf:")
    emit(depth + 1, f"{lim} = nan")


def _track(emit, depth, a, minima=True, crash=True):
    """Emit agent a's step for one frame, on its legs from the ego, ``dx{a}, dy{a}``.

    In the minima kernel the step keeps the legs if they are near the
    agent's running minimum (see ``_kernel_source``), and their squared
    length stays in ``q{a}`` for the rest of the frame; only a kept frame
    goes on to the crash test.  In the recording kernel the step is the
    crash test alone.  The test sets ``term``; ``crash=False`` omits it.
    """
    dx, dy, q, c, qm, qb = f"dx{a}", f"dy{a}", f"q{a}", f"lg{a}", f"qm{a}", f"qb{a}"
    if minima:
        emit(depth, f"{q} = {dx} * {dx} + {dy} * {dy}", f"if not {q} > {qb}:")
        emit(depth + 1, f"if not {q} >= tiny:")
        emit(depth + 2, f"{c} += {dx}, {dy}", f"{qm}, {qb} = -inf, inf")
        emit(depth + 1, f"elif (b := {q} * tie) < {qm}:")
        emit(depth + 2, f"{c} = [{dx}, {dy}]", f"{qm}, {qb} = {q}, b")
        emit(depth + 1, f"elif not {c} or {dx} != {c}[-2] or {dy} != {c}[-1]:")
        emit(depth + 2, f"{c} += {dx}, {dy}", f"if {q} < {qm}:")
        emit(depth + 3, f"{qm}, {qb} = {q}, b")
        depth += 1
    if crash:
        emit(depth, f"if {_near(dx, dy, 'crash_dist', 'ncrash')}:")
        emit(depth + 1, f"term = {CODE_CRASH}")


def _gap2(a, b) -> str:
    """Source for the squared gap between agents a's and b's boxes (``_decide``).

    It is no larger than the q of any two points in them: see ``_kernel_source``.
    """
    gaps = [f"(g{z} := {lo}{b} - {hi}{a} if {lo}{b} > {hi}{a}"
            f" else {lo}{a} - {hi}{b} if {lo}{a} > {hi}{b} else 0.0) * g{z}"
            for z, lo, hi in (("x", "bxl", "bxh"), ("y", "byl", "byh"))]
    return " + ".join(gaps)


def _decide(emit, d, modes, rules):
    """Emit the minima kernel's test between two chunks of frames.

    Frame k + 1 is next, and no frame after ``last`` runs.  The test stops
    the kernel with the termination the remaining frames would give, once
    bounds prove that those frames keep no leg, so that the result is
    decided.  ``_kernel_source`` proves each bound.  The first time, the
    test checks the bounds' preconditions and sets ``ok``; when they fail,
    the kernel never stops early.
    """
    agents = range(len(modes))

    def f1s(a, kinds):
        return [f"f{a}_{j}_1" for j, (rt, _) in enumerate(rules[a]) if rt in kinds]

    def gap2(a, b):
        return f"g{max(a, b)}" if min(a, b) == 0 else _gap2(a, b)

    # A steady ego keeps heading 0 and its speed; then an agent behind it
    # stays at least behind(a) behind (see _kernel_source).
    steady = modes[0] == MODE_LANE and all(rt != RULE_LANE_CHANGE for rt, _ in rules[0])

    def behind(a):
        return f"x0 - x{a} + (rest * r if (r := p0 - sp{a} - slack) < 0.0 else 0.0)"

    emit(d, "if not k0:")
    emit(d + 1, "ok = 0.0 < dt < inf and 0.0 <= lat_gain < inf"
                " and 0.0 < capture_radius < inf",
         f"capr, caplo, slack = capture_radius * reach, capture_radius * {SHORT!r},"
         f" {SLACK!r}",
         "big = " + " + ".join(f"abs(pos[{a}][0]) + abs(pos[{a}][1])" for a in agents))
    for a in agents:
        boosts = f1s(a, {RULE_BOOST_ON_LATERAL})
        signed = [f"speed[{a}]", f"c{a}", f"acc{a}", *boosts, *f1s(a, _BRAKES)]
        emit(d + 1, f"sp{a} = max({', '.join([f'speed[{a}]', f'c{a}', *boosts])}) * dt",
             f"tsl{a} = " + (f"min(c{a}, {', '.join(boosts)})" if boosts else f"c{a}"),
             "ok = ok and " + " and ".join(f"0.0 <= {v} < inf" for v in signed)
             + f" and -inf < heading[{a}] < inf")
        if modes[a] == MODE_LANE:
            lanes = [f"ly{a}", *f1s(a, {RULE_LANE_CHANGE})]
            emit(d + 1, f"ok = ok and sp{a} * lat_gain < 0.5",
                 "big += " + " + ".join(f"abs({y})" for y in lanes))
            if len(lanes) > 1:
                ys = ", ".join(lanes)
                emit(d + 1, f"yl{a}, yh{a} = min({ys}), max({ys})")
            else:
                emit(d + 1, f"yl{a} = yh{a} = ly{a}")
            continue
        emit(d + 1, f"ok = ok and sp{a} * reach < capture_radius",
             f"ex{a}, ey{a} = wps{a}[-1]")
    # rt{a}[i]: the box around waypoints i.., the bounds of the frozen cos
    # and sin after the last capture, and the legs' length after i.
    routes = [a for a in agents if modes[a] == MODE_WAYPOINT]
    if routes:
        emit(d + 1, "if ok:")
        emit(d + 2, f"cone = 2.0 * slack * max_frames / capture_radius + {2.0 ** -40!r}",
             "rts = []", "for wps, start in ("
             + "".join(f"(wps{a}, pos[{a}]), " for a in routes) + "):")
        emit(d + 3, "rt, j = [None] * len(wps), len(wps)",
             "(xl, yl), tail, chain = wps[-1], 0.0, True",
             "xh, yh = xl, yl", "cxl = cyl = inf", "cxh = cyh = -inf",
             "for wx, wy in reversed(wps):")
        emit(d + 4, "j -= 1", "sx, sy = wps[j - 1] if j else start",
             "if wx < xl:", "    xl = wx", "elif wx > xh:", "    xh = wx",
             "if wy < yl:", "    yl = wy", "elif wy > yh:", "    yh = wy",
             "ux, uy = wx - sx, wy - sy", "leg = hypot(ux, uy)", "if chain:")
        emit(d + 5, "if leg > 4.0 * capr:")
        emit(d + 6, "r = (2.0 * capr if j else 0.0) / leg + cone",
             "cxl, cxh = min(cxl, ux / leg - r), max(cxh, ux / leg + r)",
             "cyl, cyh = min(cyl, uy / leg - r), max(cyh, uy / leg + r)")
        emit(d + 5, "else:")
        emit(d + 6, "cxl = cyl = -1.0", "cxh = cyh = 1.0")
        emit(d + 5, "chain = leg <= 2.0 * capr * reach")
        emit(d + 4, "rt[j] = xl, xh, yl, yh, cxl, cxh, cyl, cyh, tail",
             f"tail += leg * reach + capture_radius * {2.0 ** -19!r}")
        # Each waypoint lies within the legs' length of the initial position.
        emit(d + 3, "rts.append(rt)", "big += tail")
        emit(d + 2, "".join(f"rt{a}, " for a in routes) + "= rts")
    emit(d + 1, "ok = ok and big + 2.0 * capture_radius + ("
         + " + ".join(f"sp{a}" for a in agents) + f" + 1.0) * max_frames < {COORD_BOUND!r}")
    emit(d, "if ok:")
    emit(d + 1, "rest = last - k - 1", "dec = True")
    for a in agents:  # the agents after the first undecided one are skipped
        depth = d + 1 if a < 2 else d + 2
        if depth > d + 1:
            emit(d + 1, "if dec:")
        if modes[a] == MODE_LANE:
            emit(depth, f"bxl{a}, bxh{a} = x{a}, x{a} + (sp{a} + slack) * rest",
                 f"byl{a} = y{a} if y{a} < yl{a} else yl{a}",
                 f"byh{a} = y{a} if y{a} > yh{a} else yh{a}")
        else:
            emit(depth, f"if i{a} < n{a}:")
            emit(depth + 1, f"xl, xh, yl, yh, cxl, cxh, cyl, cyh, _ = rt{a}[i{a}]",
                 f"trav{a} = (sp{a} + slack) * rest",
                 f"t{a} = (trav{a} + capr) * reach"
                 f" - max(abs(ex{a} - x{a}), abs(ey{a} - y{a}))",
                 f"if t{a} > 0.0:")
            emit(depth + 2,
                 f"xl = min(xl, ex{a} - capr + (t{a} * cxl if cxl < 0.0 else 0.0))",
                 f"xh = max(xh, ex{a} + capr + (t{a} * cxh if cxh > 0.0 else 0.0))",
                 f"yl = min(yl, ey{a} - capr + (t{a} * cyl if cyl < 0.0 else 0.0))",
                 f"yh = max(yh, ey{a} + capr + (t{a} * cyh if cyh > 0.0 else 0.0))")
            emit(depth + 1, "r = slack * rest",  # and no farther than its travel
                 f"bxl{a} = max(min(x{a}, xl) - r, x{a} - trav{a})",
                 f"bxh{a} = min(max(x{a}, xh) + r, x{a} + trav{a})",
                 f"byl{a} = max(min(y{a}, yl) - r, y{a} - trav{a})",
                 f"byh{a} = min(max(y{a}, yh) + r, y{a} + trav{a})")
            emit(depth, "else:")
            emit(depth + 1, f"t{a} = inf", f"r = (sp{a} * abs(co{a}) + slack) * rest",
                 f"bxl{a}, bxh{a} = (x{a}, x{a} + r) if co{a} >= 0.0 else (x{a} - r, x{a})",
                 f"r = (sp{a} * abs(sn{a}) + slack) * rest",
                 f"byl{a}, byh{a} = (y{a}, y{a} + r) if sn{a} >= 0.0 else (y{a} - r, y{a})")
        if not a and steady:
            emit(depth, f"p0 = (v0 if v0 < tsl0 else tsl0) * dt * {SHORT!r} - slack",
                 "used = False")
        elif a:  # decided: no frame left can keep a leg of agent a
            emit(depth, f"dec = (g{a} := {_gap2(0, a)}) > qb{a}" + (
                f" or (bh := {behind(a)}) > 0.0 and bh * bh + gy * gy > qb{a}"
                " and (used := True)" if steady else ""))
    decided = "dec"
    if steady:  # a decision that used behind() needs the ego's rules quiet
        calm = [f"(g{b} >= lm0_{j} or {behind(b)} > 0.0)" if rt == RULE_BRAKE_AHEAD
                else f"(g{b} >= lm0_{j} or {behind(b)} >= f0_{j}_0)"
                if rt == RULE_BRAKE_NEAR else f"s0_{j} == 1.0"
                for j, (rt, b) in enumerate(rules[0])
                if rt in _BRAKES or rt == RULE_WAIT_UNTIL_NEAR]
        decided += f" and (not used or {' and '.join(['y0 == ly0', *calm])})"
    emit(d + 1, f"if {decided}:")
    depth = d + 2
    # Every agent is decided, so no crash is left: the termination is the
    # time limit or cleared, and each needs a proof.
    never = [f"bxh{a} < gx{a}" if modes[a] == MODE_LANE else f"t{a} <= 0.0" for a in agents]
    emit(depth, f"if {' or '.join(never)}:")
    emit(depth + 1, f"term = {CODE_TIME_LIMIT}", "break")
    emit(depth, "clear = True")
    for a in agents:
        quiet = [f"{gap2(a, b)} >= lm{a}_{j}" if rt in _BRAKES else f"s{a}_{j} == 1.0"
                 for j, (rt, b) in enumerate(rules[a])
                 if rt in _BRAKES or rt == RULE_WAIT_UNTIL_NEAR]
        emit(depth, f"if clear and {'not done' if modes[a] == MODE_LANE else 'i'}{a}"
                    f"{'' if modes[a] == MODE_LANE else f' < n{a}'}:")
        emit(depth + 1, f"vl = v{a} if v{a} < tsl{a} else tsl{a}")
        if modes[a] == MODE_LANE:
            emit(depth + 1, f"yl = yh = ly{a}")
            for j, (rt, b) in enumerate(rules[a]):
                if rt == RULE_LANE_CHANGE:
                    s = f"s{a}_{j}"
                    emit(depth + 1, f"if {s} == 1.0 or {s} == 0.0 and not"
                                    f" {gap2(a, b)} >= lm{a}_{j}:")
                    emit(depth + 2, f"yl, yh = min(yl, f{a}_{j}_1), max(yh, f{a}_{j}_1)")
            emit(depth + 1,
                 f"r = lat_gain * (max(yh, y{a}) - min(yl, y{a})) * reach",
                 f"r = vl * dt * (1.0 - r * r) * {SHORT!r} - slack",
                 "clear = " + " and ".join(
                     [*quiet, "r > 0.0", f"(gx{a} - x{a}) * reach <= rest * r"]))
        else:
            emit(depth + 1, f"r = vl * dt * {SHORT!r} - slack",
                 f"left = hypot(wx{a} - x{a}, wy{a} - y{a}) * reach - caplo",
                 "clear = " + " and ".join(
                     [*quiet, "r > 0.0", f"((left if left > 0.0 else 0.0) + rt{a}[i{a}][8])"
                      f" * reach <= r * (rest - n{a} + i{a})"]))
    emit(depth, "if clear:")
    emit(depth + 1, f"term = {CODE_CLEARED}", "break")


def _kernel_source(modes, rules, minima=False) -> str:
    """The kernel for one structure, as Python source.

    Agent state lives in locals (``x0, y0, h0, v0, ...``) and each rule is
    inlined with its type resolved; the floats stay arguments.  Every float
    goes through the same operations in the same order as in the reference,
    ``integrate_arrays`` in tests/kinematics_oracle.py, so the recorded
    trajectories are bit for bit the reference's; a change to the
    arithmetic here is made there too.

    The flag picks what the kernel returns.  Without ``minima`` it records
    every frame's positions, headings and speeds, flat, as ``(pos, heading,
    speed, term)``.  With it, it keeps, for each non-ego agent, only the
    frames near the agent's smallest separation from the ego, and returns
    ``(legs, counts, term)``: ``legs`` holds each kept frame's
    ``x0 - xa, y0 - ya`` flat, agent by agent, and ``counts[a]`` how many
    frames agent a kept (agent 0 keeps its own last-frame leg).  Applying
    ``np.hypot`` to those legs and taking each agent's minimum gives the
    minimum of ``Trajectory.separations(EGO, agent)`` bit for bit:

    - q = dx*dx + dy*dy is within a factor (1 +- u)**2 of the exact
      s = dx**2 + dy**2 (u = 2**-53) while q >= TINY = 2**-900, so no
      square can underflow enough to matter; a hypot within 3 ulps of
      sqrt(s), as ``np.hypot`` and ``math.hypot`` are, is within a factor
      1 +- 6u.  So if q' > fl(TIE * q), with TIE = 1 + 2**-48, the frame
      of q' has a hypot no smaller than that of q: the reverse would need
      q'/q < ((1 + 6u)(1 + u) / ((1 - 6u)(1 - u)))**2 < 1 + 29u, while
      fl(TIE * q) / q >= (1 + 32u)(1 - u) > 1 + 30u.
    - The kernel skips a frame with q > fl(TIE * qm), where qm is the
      running minimum, replaces the kept legs with one whose fl(TIE * q)
      is below qm (so below every kept q), and appends any other.  So every
      frame left out has a hypot no smaller than one kept at the time,
      and, by induction, than one kept at the end: the minimum survives.
    - No leg equal to the last one kept is appended (the ego stopped short
      of a stopped agent, say): it has the same q and hypot, and that
      frame already ran the crash test.
    - A q that is NaN or below TINY makes the agent keep every later
      frame, repeats aside.  A frame whose hypot is NaN has a NaN q, so
      NaN propagates as ``ndarray.min()`` propagates it.
    - The crash test runs on every frame that is not skipped.  A skipped
      frame's hypot is no smaller than that of an earlier frame, which did
      not crash.  Both kernels run it on the frame-k legs ``x0 - xa``,
      before goal bookkeeping, which moves no agent: the reference takes
      ``xa - x0`` after it, and hypot and its guard ignore the sign.
    - Agent 0's own leg ``x0 - x0`` is 0.0 while x0 is finite and NaN
      once it is not.  A position only ever has a step added to it, so a
      non-finite coordinate stays non-finite, and the last frame's leg
      gives the minimum over all frames.

    Four shortcuts skip work whose outcome is already known, so the
    trajectories stay bit-identical:

    - Each agent keeps ``cos`` and ``sin`` of its heading (``co0, sn0``)
      and recomputes them only when the heading no longer compares equal
      to the one they were computed for (``hc0``).  Floats that compare
      equal have the same bits, except +0.0 and -0.0: for those ``cos`` is
      1.0 either way and ``sin`` returns its argument, so ``sn0 = h0``
      keeps the sign.  NaN never compares equal, so it is recomputed.  An
      agent's brake-ahead rules read the same pair: it holds the frame-k
      heading until the agent steers.
    - Each ``hypot(dx, dy) < r`` is guarded by ``-r < dx < r and -r < dy < r``.
      ``math.hypot`` is faithfully rounded (error under 1 ulp) and
      ``max(|dx|, |dy|)`` is a float no larger than the exact length, so
      the result is never below it: whenever the guard fails, the test
      fails too.  A NaN leg fails both.
    - A lane agent's heading is ``atan2(e, 1.0)`` with
      ``e = lat_gain * (y_des - y)``.  When ``e == 0.0`` the kernel sets
      ``h = e``: CPython's ``math.atan2(+-0.0, 1.0)`` returns its first
      argument exactly, sign included.  NaN never compares equal, so it
      reaches the call.
    - In the minima kernel, an ego brake-ahead rule with trigger f0 and
      corridor f2 first checks ``not q >= lim``, where q is its target's
      q from the tracking step (the same frame-k legs, negated) and
      ``lim = fl(f0*f0 + f2*f2) * REACH`` with REACH = 1 + 2**-20: a
      broad phase before the exact test.  Write r for the exact length
      of the rounded legs and m = sqrt(co**2 + sn**2), where
      m**2 >= (1 - 2u)**2 since ``cos`` and ``sin`` err by under 1 ulp.
      ``along`` and ``cross`` are each within 2u * (|dx co| + |dy sn|)
      <= 2u * r * m of their exact values, whose pair has length r * m.
      So if ``0 < along < f0`` and ``|cross| < f2`` hold on the rounded
      values, r * m < sqrt(f0**2 + f2**2) + 2u * sqrt(2) * r * m, and the
      exact dx**2 + dy**2 is at most (f0**2 + f2**2)(1 + c*u) with c
      about 10.  q is within (1 +- 2u) of it and fl(f0*f0 + f2*f2) within
      (1 +- 2u) of f0**2 + f2**2, so a rule that fires has q < lim, far
      inside the 2**-20 margin: ``q >= lim`` means it cannot fire.  That
      needs a finite ``lim`` no smaller than TINY, so that no square
      underflows enough to matter; any other ``lim`` (from an infinite
      or NaN trigger or corridor, say) is set to NaN, and then no target
      is skipped.  An infinite q is at or above a finite ``lim`` and
      skips.  With finite legs the bound above covers it; a non-finite
      leg makes ``along`` or ``cross`` infinite or NaN, so the full test
      cannot fire on it either.  A NaN q never skips.  Each brake and
      lane-change rule's ``lim`` is set once, at the kernel's start, as
      ``lm{a}_{j}``; ``_decide`` reads the others.

    The minima kernel runs its frames in chunks of CHUNK.  After each
    whole chunk, ``_decide`` tries to prove the rest of the run, frames
    k' = k + 1 to ``last``, and stops the kernel when it can.  Write
    R = last - k' for the steps left.  Agent a is *decided* once a box
    that holds all its positions in those frames and the ego's box are so
    far apart that G, the squared gap between them, exceeds ``qb{a}``.
    Rounding is monotone, so |fl(x0 - xa)| >= fl(gap_x) and
    fl(dx*dx + dy*dy) >= G: every later frame is skipped, keeps no leg
    and runs no crash test, as in the full run.  Once every agent is
    decided, no crash is left, and the termination is ``cleared`` if
    every agent finishes by frame ``last`` and ``time_limit`` otherwise.
    So the kernel stops with ``time_limit`` if some agent cannot finish,
    with ``cleared`` if each unfinished one must, and otherwise runs on.

    The bounds hold under preconditions, checked once at the first
    boundary (``ok``).  Every initial speed, cruise speed, acceleration,
    brake rate and boost speed is finite and >= 0; every heading, lane
    and waypoint coordinate is finite; 0 < dt, 0 <= lat_gain and
    0 < capture_radius are finite; and the coordinates stay below
    COORD_BOUND = 2**20 (their sum of magnitudes plus the reach of every
    frame).  When they fail, the kernel runs every frame, as before.

    - Speed.  The speed moves toward a target in {cruise, boost speed, 0}
      at a rate >= 0, never past it, and is clamped at 0.  So every speed
      lies in [0, vm] with vm = max(initial speed, cruise, boost speeds),
      and a step along x is fl(fl(v*co)*dt), at most ``sp = fl(vm*dt)``
      in size by monotonicity, since |co|, |sn| <= 1.
    - Rounding.  Below 2**20 an addition errs by at most 2**-33, and
      sp <= 2**20, so SLACK = 2**-28 per frame covers a position's
      rounding, the errors of a step's direction and those of computing
      the bounds: ``(sp + slack) * R`` bounds any coordinate's travel.
    - Lane agent.  Its heading is atan2(e, 1), in [-fl(pi/2), fl(pi/2)],
      whose ``cos`` is > 0, so x never decreases: x is in [x, x + travel].
      With e = lat_gain * (y_des - y), |sin h| <= |h| <= |e| up to a few
      ulps, so a step in y is at most vm*dt*lat_gain*|y_des - y| (1 + 8u)
      in size, which is below |y_des - y| while sp * lat_gain < 1/2, and
      has its sign.  So y stays between its own value and each y_des it
      moves toward: ``lane_y`` and its lane-change targets.
    - Waypoint agent.  While sp * REACH < capture_radius, a step is
      shorter than the distance to the waypoint it heads for, which was
      not captured, so it ends on the segment toward that waypoint, up to
      SLACK.  Until its last capture the agent so stays in the box around
      its position and its remaining waypoints, widened by SLACK a frame,
      and always within its travel of where it is.  The last capture
      needs it within ``capr`` of the last waypoint, after covering at
      least the distance there, in the larger coordinate, less ``capr``.
      The travel left after that, t (t <= 0 when there is none), runs
      along the frozen ``co, sn`` of the last steer.  That steer aimed at
      a waypoint from a point on a segment that began at the initial
      position (waypoint 0) or within ``capr`` of waypoint j - 1
      (waypoint j): a direction within 2 * capr / leg of the leg's, plus
      ``cone`` for the drift of SLACK a frame seen from at least the
      capture radius.  It aimed at the last waypoint, or at an earlier
      one whose capture zone, like each after it, overlaps the next, so
      that all of them are captured in one frame.  ``rt{a}[i]`` holds the
      box around waypoints i.. and the union of those cones.  Once the
      route is done, the ray follows ``co, sn`` themselves, and each
      coordinate moves only in the direction of its sign.
    - Steady ego.  A lane ego with no lane-change rule, on its lane
      (y0 == lane_y), has e = +-0 on every frame, so its heading is +-0,
      with co = 1 and sn = +-0, and y0 never changes.  A brake-ahead
      rule's ``along`` is then exactly dx = xb - x0.  While none of its
      rules fires, its speed stays at least vl (see the verdicts below)
      and x0 gains at least p0 = vl * dt * SHORT - SLACK a frame, while
      an agent's x gains at most sp + SLACK.  So x0 - xa at frame k' + m
      is at least x0 - xa + m * min(0, p0 - sp - SLACK), no less than
      ``behind(a)``, its value at one end.  A decision may use that gap
      along x, with the boxes' gap along y (``used``), once the ego's
      rules are shown unable to fire, by induction over the frames: a
      brake rule whose target's box is out of reach, a brake-ahead rule
      whose target stays behind (behind > 0, so along < 0), a brake-near
      rule whose target stays f0 behind (its guard fails), and a wait
      rule already released.
    - Verdicts.  ``time_limit``: a lane agent's box ends before its
      ``goal_x``, or a waypoint agent's t <= 0.  ``cleared``: every
      unfinished agent's brake rules see a target box no nearer than
      their reach bound ``lim`` (the argument above, with f2 = 0 for a
      gap rule), and its wait rules are released.  Then its speed is at
      least vl = min(v, cruise, boost speeds) from now on, and a step
      gains at least ``vl * dt`` less SLACK, times cos h >= 1 - e**2 for
      a lane agent, where e bounds |lat_gain * (y_des - y)| over the
      y_des it can still hold.  A lane agent must cover goal_x - x in R
      steps.  A waypoint agent covers each leg within one frame more than
      its length over that gain, less the capture radius, so its
      distance to its waypoint and the legs after it must fit in R less
      one frame per leg.
    """
    agents = range(len(modes))
    lines = []

    def emit(depth, *texts):
        lines.extend("    " * depth + t for t in texts)

    def row(fmt, among=agents):
        return ", ".join(fmt.format(a=a) for a in among) + ","

    def steer(depth, a, heading):
        emit(depth, f"h{a} = {heading}", f"if h{a} != hc{a}:")
        emit(depth + 1, f"hc{a}, co{a}, sn{a} = h{a}, cos(h{a}), sin(h{a})")
        emit(depth, f"elif h{a} == 0.0:")
        emit(depth + 1, f"sn{a} = h{a}")

    # Controls read the frame-k values.  A later agent's rule may read an
    # earlier agent's position, so that agent's new position is assigned
    # only after every agent has updated.
    deferred = sorted({b for a in agents for _, b in rules[a] if b < a})
    emit(0, "def kernel(pos, heading, speed, cruise, accel, waypoints, goal_x,"
            " lane_y, rules, dt, max_frames, crash_dist, capture_radius, lat_gain):")
    emit(1, "hypot, atan2, cos, sin = math.hypot, math.atan2, math.cos, math.sin",
         f"{row('(x{a}, y{a})')} = pos", f"{row('h{a}')} = heading",
         f"{row('v{a}')} = speed", f"{row('c{a}')} = cruise",
         f"{row('acc{a}')} = accel", "ncap, ncrash = -capture_radius, -crash_dist")
    for a in agents:
        emit(1, f"hc{a}, co{a}, sn{a} = h{a}, cos(h{a}), sin(h{a})")
        if modes[a] == MODE_WAYPOINT:
            emit(1, f"wps{a} = waypoints[{a}]", f"n{a} = len(wps{a})", f"i{a} = 0",
                 f"wx{a}, wy{a} = wps{a}[0]")
        else:
            emit(1, f"gx{a} = goal_x[{a}]", f"ly{a} = lane_y[{a}]", f"done{a} = False")
        for j, (rt, _) in enumerate(rules[a]):
            emit(1, f"_, _, f{a}_{j}_0, f{a}_{j}_1, f{a}_{j}_2 = rules[{a}][{j}]")
            if rt in _GAPS:
                emit(1, f"nf{a}_{j} = -f{a}_{j}_0")
            if rt not in _BRAKES:
                emit(1, f"s{a}_{j} = 0.0")
    if minima:
        emit(1, "inf, nan = math.inf, math.nan",
             f"tie, tiny, reach = {TIE!r}, {TINY!r}, {REACH!r}")
        for a in agents:
            if a:
                emit(1, f"qm{a} = qb{a} = inf", f"lg{a} = []")
            for j, (rt, _) in enumerate(rules[a]):
                if rt in _BRAKES or rt == RULE_LANE_CHANGE:
                    f2 = f"f{a}_{j}_2" if rt == RULE_BRAKE_AHEAD else "0.0"
                    _reach(emit, 1, f"lm{a}_{j}", f"f{a}_{j}_0", f2)
    else:
        emit(1, "rec_pos, rec_heading, rec_speed = [], [], []")
    emit(1, f"term = {CODE_TIME_LIMIT}", "last = max_frames - 1")
    if minima:  # frames in chunks, with the test of _decide between them
        emit(1, f"for k0 in range(0, max_frames, {CHUNK}):")
        emit(2, f"for k in range(k0, k0 + {CHUNK}):")
    else:
        emit(1, "for k in range(max_frames):")
    d = 3 if minima else 2  # the depth of the frame body
    if not minima:
        emit(d, f"rec_pos.extend(({row('x{a}, y{a}')}))",
             f"rec_heading.extend(({row('h{a}')}))",
             f"rec_speed.extend(({row('v{a}')}))")
    for a in agents[1:]:
        emit(d, f"dx{a} = x0 - x{a}", f"dy{a} = y0 - y{a}")
        _track(emit, d, a, minima)
    if len(agents) > 1:
        emit(d, "if term:")
        emit(d + 1, "break")
    emit(d, "# Goal bookkeeping on the frame-k state.")
    for a in agents:
        if modes[a] == MODE_WAYPOINT:
            capture = _near(f"wx{a} - x{a}", f"wy{a} - y{a}", "capture_radius", "ncap")
            emit(d, f"while i{a} < n{a} and {capture}:")
            emit(d + 1, f"i{a} += 1", f"if i{a} < n{a}:")
            emit(d + 2, f"wx{a}, wy{a} = wps{a}[i{a}]")
        else:
            emit(d, f"if x{a} >= gx{a}:")
            emit(d + 1, f"done{a} = True")
    emit(d, "if " + " and ".join(
        f"i{a} >= n{a}" if modes[a] == MODE_WAYPOINT else f"done{a}" for a in agents
    ) + ":")
    emit(d + 1, f"term = {CODE_CLEARED}", "break")
    emit(d, "if k == last:")
    emit(d + 1, "break")
    for a in agents:
        kinds = {rt for rt, _ in rules[a]}
        brakes = bool(kinds & _BRAKES)
        emit(d, f"# Agent {a}.", f"ts = c{a}")
        if brakes:
            emit(d, "braking = False", "brake_rate = 0.0")
        if RULE_WAIT_UNTIL_NEAR in kinds:
            emit(d, "holding = False")
        if modes[a] == MODE_LANE:
            emit(d, f"y_des = ly{a}")
        for j, (rt, b) in enumerate(rules[a]):
            f0, f1, f2, s = f"f{a}_{j}_0", f"f{a}_{j}_1", f"f{a}_{j}_2", f"s{a}_{j}"
            gap_below_f0 = _near(f"x{b} - x{a}", f"y{b} - y{a}", f0, f"nf{a}_{j}")
            if rt == RULE_BRAKE_AHEAD:
                ahead = _ahead(f"x{b} - x{a}", f"y{b} - y{a}", f"co{a}", f"sn{a}", f0, f2)
                reach = f"not q{b} >= lm0_{j} and " if minima and a == 0 else ""
                emit(d, f"if {reach}{ahead}:")
            elif rt == RULE_BRAKE_NEAR:
                emit(d, f"if {gap_below_f0}:")
            elif rt == RULE_BOOST_ON_LATERAL:
                emit(d, f"if {s} == 0.0 and abs(y{b} - {f2}) > {f0}:")
            else:
                emit(d, f"if {s} == 0.0 and {gap_below_f0}:")
            if rt in _BRAKES:
                emit(d + 1, "braking = True", f"if {f1} > brake_rate:")
                emit(d + 2, f"brake_rate = {f1}")
                continue
            emit(d + 1, f"{s} = 1.0")
            if rt == RULE_WAIT_UNTIL_NEAR:
                emit(d, f"if {s} == 0.0:")
                emit(d + 1, "holding = True")
                continue
            if rt == RULE_LANE_CHANGE:
                emit(d, f"if {s} == 1.0 and x{a} > x{b} + {f2}:")
                emit(d + 1, f"{s} = 2.0")
            emit(d, f"if {s} == 1.0:")
            emit(d + 1, f"ts = {f1}" if rt == RULE_BOOST_ON_LATERAL else f"y_des = {f1}")
        stops = ["holding"] * (RULE_WAIT_UNTIL_NEAR in kinds) + ["braking"] * brakes
        if stops:
            emit(d, f"if {' or '.join(stops)}:")
            emit(d + 1, "ts = 0.0")
        if modes[a] == MODE_WAYPOINT:
            emit(d, f"if i{a} < n{a}:")
            steer(d + 1, a, f"atan2(wy{a} - y{a}, wx{a} - x{a})")
        else:
            steer(d, a, f"e if (e := lat_gain * (y_des - y{a})) == 0.0 else atan2(e, 1.0)")
        emit(d, f"if v{a} < ts:")
        emit(d + 1, f"u = v{a} + acc{a} * dt", f"v{a} = u if u < ts else ts")
        emit(d, f"elif v{a} > ts:")
        rate = f"(brake_rate if braking else acc{a})" if brakes else f"acc{a}"
        emit(d + 1, f"u = v{a} - {rate} * dt", f"v{a} = u if u > ts else ts",
             f"if v{a} < 0.0:")
        emit(d + 2, f"v{a} = 0.0")
        new = "n" if a in deferred else ""
        emit(d, f"{new}x{a} = x{a} + v{a} * co{a} * dt",
             f"{new}y{a} = y{a} + v{a} * sn{a} * dt")
    if deferred:
        emit(d, f"{row('x{a}, y{a}', deferred)} = {row('nx{a}, ny{a}', deferred)}")
    if minima:
        emit(2, "else:")  # a whole chunk ran: frame k + 1 is next
        _decide(emit, 3, modes, rules)
        emit(3, "continue")
        emit(2, "break")
        kept = "".join(f", *lg{a}" for a in agents[1:])
        counts = "".join(f", len(lg{a}) // 2" for a in agents[1:])
        emit(1, f"return [x0 - x0, y0 - y0{kept}], (1{counts},), term")
    else:
        emit(1, "return rec_pos, rec_heading, rec_speed, term")
    return "\n".join(lines) + "\n"


def _compiled(structure, minima=False):
    """The kernel for a structure, generated and compiled on first use.

    Its source is registered in ``linecache`` under a file name that spells
    the structure, so tracebacks, profiles and ``inspect`` show its lines.
    """
    key = (structure, minima)
    with _kernels_lock:
        if key not in _kernels:
            modes, rules = structure
            source = _kernel_source(modes, rules, minima)
            filename = "<falsify.kinematics %s: %s>" % (
                "minima kernel" if minima else "kernel",
                "; ".join(
                    " ".join(["waypoint" if m == MODE_WAYPOINT else "lane"]
                             + [f"{_RULE_NAMES[rt]}->{b}" for rt, b in rules[a]])
                    for a, m in enumerate(modes)
                ),
            )
            namespace = {"math": math}
            exec(compile(source, filename, "exec"), namespace)
            while len(_kernels) >= KERNEL_CACHE_SIZE:
                evicted = _kernels.pop(next(iter(_kernels)))
                linecache.cache.pop(evicted.__code__.co_filename, None)
            lines = source.splitlines(True)
            linecache.cache[filename] = (len(source), None, lines, filename)
            _kernels[key] = namespace["kernel"]
        return _kernels[key]


def active_backend() -> str:
    """``"python"``: the one kernel's name.

    Its only reader is the benchmark (perfbench), which reports it.
    """
    return "python"


def kernel_functions() -> dict:
    """``{"python": run_scene}``: the one kernel, by name.

    Its only reader is the benchmark (perfbench), whose numba section finds
    no "numba" entry here and reports itself skipped.
    """
    return {"python": run_scene}


@dataclass
class Scene:
    """Initial conditions plus behavior wiring for one simulation.

    Agent 0 is always the ego vehicle.  Built via SceneBuilder from the
    lists it keeps: one entry per agent, positions and waypoints as
    ``(x, y)`` tuples, and ``rules[a]`` as agent a's
    ``(type, target, f0, f1, f2)`` tuples in the order they were added.
    The kernel reads a Scene and never writes to it.
    """

    agents: tuple[str, ...]
    mode: list[int]
    pos: list[tuple[float, float]]
    heading: list[float]
    speed: list[float]
    cruise: list[float]
    accel: list[float]
    waypoints: list[list[tuple[float, float]]]
    goal_x: list[float]
    lane_y: list[float]
    rules: list[list[tuple[int, int, float, float, float]]]


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
        if not (0 <= speed < math.inf and 0 <= cruise < math.inf
                and 0 < accel < math.inf):
            raise DomainError(
                f"agent {name!r}: speeds must be finite and >= 0, accel finite and > 0"
            )
        if not all(map(math.isfinite, [*pos, *itertools.chain(*waypoints)])):
            raise DomainError(f"agent {name!r}: positions and waypoints must be finite")
        if math.isnan(goal_x):
            raise DomainError(f"agent {name!r}: goal_x must not be NaN")
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
        if not (0 < trigger < math.inf and 0 < decel < math.inf):
            raise DomainError("brake rule needs finite trigger > 0 and decel > 0")
        self._add_rule(agent, RULE_BRAKE_NEAR, target, trigger, decel)

    def brake_ahead(self, agent, target, trigger, decel, corridor):
        """Brake only for targets ahead of the heading within a lateral corridor."""
        if not (0 < trigger < math.inf and 0 < decel < math.inf
                and 0 < corridor < math.inf):
            raise DomainError(
                "brake-ahead rule needs finite trigger, decel and corridor > 0"
            )
        self._add_rule(agent, RULE_BRAKE_AHEAD, target, trigger, decel, corridor)

    def wait_until_near(self, agent, target, trigger):
        if not 0 <= trigger < math.inf:
            raise DomainError("wait rule needs finite trigger >= 0")
        self._add_rule(agent, RULE_WAIT_UNTIL_NEAR, target, trigger)

    def boost_on_lateral(self, agent, target, offset_threshold, boost_speed, ref_y):
        if not (0 < offset_threshold < math.inf and 0 <= boost_speed < math.inf
                and math.isfinite(ref_y)):
            raise DomainError(
                "boost rule needs finite threshold > 0, speed >= 0 and reference y"
            )
        self._add_rule(
            agent, RULE_BOOST_ON_LATERAL, target, offset_threshold, boost_speed, ref_y
        )

    def lane_change(self, agent, target, trigger, to_y, clear_margin):
        if self._mode[agent] != MODE_LANE:
            raise DomainError("lane changes apply to lane agents only")
        if not (0 < trigger < math.inf and 0 <= clear_margin < math.inf
                and math.isfinite(to_y)):
            raise DomainError(
                "lane change needs finite trigger > 0, clear margin >= 0 and lane y"
            )
        self._add_rule(agent, RULE_LANE_CHANGE, target, trigger, to_y, clear_margin)

    def build(self) -> Scene:
        if not self._names:
            raise DomainError("scene needs at least one agent")
        heading = [
            math.atan2(wps[0][1] - y, wps[0][0] - x) if m == MODE_WAYPOINT else 0.0
            for m, (x, y), wps in zip(self._mode, self._pos, self._waypoints)
        ]
        return Scene(
            agents=tuple(self._names),
            mode=list(self._mode),
            pos=list(self._pos),
            heading=heading,
            speed=list(self._speed),
            cruise=list(self._cruise),
            accel=list(self._accel),
            waypoints=list(self._waypoints),
            goal_x=list(self._goal_x),
            lane_y=list(self._lane_y),
            rules=[list(r) for r in self._rules],
        )


def run_scene(
    scene: Scene,
    dt: float = 0.1,
    max_frames: int = 300,
    minima: bool = False,
):
    """Integrate a scene; returns (positions, headings, speeds, termination code).

    Runs the kernel generated for the scene's structure (``_structure``):
    straight-line Python from ``_kernel_source``, which reads the Scene's
    lists as they are and records each trajectory flat, frame after frame.
    Here those lists are shaped into arrays of the recorded frames only.
    Each is packed into bytes and viewed as float64 in one copy, so the
    arrays are read-only.  With ``minima`` nothing is recorded, and the
    result is ``(legs, counts, code)``: the legs the minima kernel keeps,
    an (n, 2) array agent by agent packed the same way, and how many each
    agent kept (see ``_kernel_source``).  ``min_separations`` reduces them.
    """
    if not dt > 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if max_frames < 1:
        raise DomainError(f"max_frames must be >= 1, got {max_frames}")
    out = _compiled(_structure(scene), minima)(
        scene.pos, scene.heading, scene.speed, scene.cruise, scene.accel,
        scene.waypoints, scene.goal_x, scene.lane_y, scene.rules,
        float(dt), int(max_frames), CRASH_DISTANCE, CAPTURE_RADIUS, LATERAL_GAIN,
    )
    if minima:
        flat, counts, code = out
        return _packed(flat).reshape(-1, 2), counts, code
    pos, heading, speed, code = out
    frames = len(speed) // len(scene.agents)
    return (
        _packed(pos).reshape(frames, -1, 2),
        _packed(heading).reshape(frames, -1),
        _packed(speed).reshape(frames, -1),
        code,
    )


def min_separations(legs: np.ndarray, counts) -> np.ndarray:
    """Each agent's smallest ``np.hypot`` over its legs, as ``run_scene`` keeps them.

    ``counts[a]`` consecutive rows of ``legs`` belong to agent a; every
    count is at least 1.  NaN propagates as it does through ``ndarray.min``.
    """
    seps = np.hypot(legs[:, 0], legs[:, 1])
    return np.minimum.reduceat(seps, [0, *itertools.accumulate(counts[:-1])])


def _packed(flat: list) -> np.ndarray:
    return np.frombuffer(struct.pack(f"{len(flat)}d", *flat), dtype=np.float64)
