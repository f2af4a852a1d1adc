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


def _track(emit, depth, a, crash=True):
    """Emit agent a's step of the minima kernel for one frame.

    The step keeps the agent's legs from the ego, ``dx{a}, dy{a}``, if they
    are near its running minimum (see ``_kernel_source``).  Their squared
    length stays in ``q{a}`` for the rest of the frame.  With ``crash``, a
    kept frame also runs the crash test, which sets ``term``.
    """
    dx, dy, q, c, qm, qb = f"dx{a}", f"dy{a}", f"q{a}", f"lg{a}", f"qm{a}", f"qb{a}"
    emit(depth, f"{q} = {dx} * {dx} + {dy} * {dy}", f"if not {q} > {qb}:")
    emit(depth + 1, f"if not {q} >= tiny:")
    emit(depth + 2, f"{c} += {dx}, {dy}", f"{qm}, {qb} = -inf, inf")
    emit(depth + 1, f"elif (b := {q} * tie) < {qm}:")
    emit(depth + 2, f"{c} = [{dx}, {dy}]", f"{qm}, {qb} = {q}, b")
    emit(depth + 1, f"elif not {c} or {dx} != {c}[-2] or {dy} != {c}[-1]:")
    emit(depth + 2, f"{c} += {dx}, {dy}", f"if {q} < {qm}:")
    emit(depth + 3, f"{qm}, {qb} = {q}, b")
    if crash:
        emit(depth + 1, f"if {_near(dx, dy, 'crash_dist', 'ncrash')}:")
        emit(depth + 2, f"term = {CODE_CRASH}")


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
      not crash.
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
      cannot fire on it either.  A NaN q never skips.
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
        for a in agents[1:]:
            emit(1, f"qm{a} = qb{a} = inf", f"lg{a} = []")
        for j, (rt, _) in enumerate(rules[0]):
            if rt == RULE_BRAKE_AHEAD:
                _reach(emit, 1, f"lim0_{j}", f"f0_{j}_0", f"f0_{j}_2")
    else:
        emit(1, "rec_pos, rec_heading, rec_speed = [], [], []")
    emit(1, f"term = {CODE_TIME_LIMIT}", "last = max_frames - 1",
         "for k in range(max_frames):")
    if minima:
        for a in agents[1:]:
            emit(2, f"dx{a} = x0 - x{a}", f"dy{a} = y0 - y{a}")
            _track(emit, 2, a)
        if len(agents) > 1:
            emit(2, "if term:")
            emit(3, "break")
    else:
        emit(2, f"rec_pos.extend(({row('x{a}, y{a}')}))",
             f"rec_heading.extend(({row('h{a}')}))",
             f"rec_speed.extend(({row('v{a}')}))")
    emit(2, "# Goal bookkeeping on the frame-k state.")
    for a in agents:
        if modes[a] == MODE_WAYPOINT:
            capture = _near(f"wx{a} - x{a}", f"wy{a} - y{a}", "capture_radius", "ncap")
            emit(2, f"while i{a} < n{a} and {capture}:")
            emit(3, f"i{a} += 1", f"if i{a} < n{a}:")
            emit(4, f"wx{a}, wy{a} = wps{a}[i{a}]")
        else:
            emit(2, f"if x{a} >= gx{a}:")
            emit(3, f"done{a} = True")
    if not minima:  # the minima kernel ran its crash tests with its legs
        for a in agents[1:]:
            emit(2, f"if {_near(f'x{a} - x0', f'y{a} - y0', 'crash_dist', 'ncrash')}:")
            emit(3, f"term = {CODE_CRASH}", "break")
    emit(2, "if " + " and ".join(
        f"i{a} >= n{a}" if modes[a] == MODE_WAYPOINT else f"done{a}" for a in agents
    ) + ":")
    emit(3, f"term = {CODE_CLEARED}", "break")
    emit(2, "if k == last:")
    emit(3, "break")
    for a in agents:
        kinds = {rt for rt, _ in rules[a]}
        brakes = bool(kinds & _BRAKES)
        emit(2, f"# Agent {a}.", f"ts = c{a}")
        if brakes:
            emit(2, "braking = False", "brake_rate = 0.0")
        if RULE_WAIT_UNTIL_NEAR in kinds:
            emit(2, "holding = False")
        if modes[a] == MODE_LANE:
            emit(2, f"y_des = ly{a}")
        for j, (rt, b) in enumerate(rules[a]):
            f0, f1, f2, s = f"f{a}_{j}_0", f"f{a}_{j}_1", f"f{a}_{j}_2", f"s{a}_{j}"
            gap_below_f0 = _near(f"x{b} - x{a}", f"y{b} - y{a}", f0, f"nf{a}_{j}")
            if rt == RULE_BRAKE_AHEAD:
                ahead = _ahead(f"x{b} - x{a}", f"y{b} - y{a}", f"co{a}", f"sn{a}", f0, f2)
                reach = f"not q{b} >= lim0_{j} and " if minima and a == 0 else ""
                emit(2, f"if {reach}{ahead}:")
            elif rt == RULE_BRAKE_NEAR:
                emit(2, f"if {gap_below_f0}:")
            elif rt == RULE_BOOST_ON_LATERAL:
                emit(2, f"if {s} == 0.0 and abs(y{b} - {f2}) > {f0}:")
            else:
                emit(2, f"if {s} == 0.0 and {gap_below_f0}:")
            if rt in _BRAKES:
                emit(3, "braking = True", f"if {f1} > brake_rate:")
                emit(4, f"brake_rate = {f1}")
                continue
            emit(3, f"{s} = 1.0")
            if rt == RULE_WAIT_UNTIL_NEAR:
                emit(2, f"if {s} == 0.0:")
                emit(3, "holding = True")
                continue
            if rt == RULE_LANE_CHANGE:
                emit(2, f"if {s} == 1.0 and x{a} > x{b} + {f2}:")
                emit(3, f"{s} = 2.0")
            emit(2, f"if {s} == 1.0:")
            emit(3, f"ts = {f1}" if rt == RULE_BOOST_ON_LATERAL else f"y_des = {f1}")
        stops = ["holding"] * (RULE_WAIT_UNTIL_NEAR in kinds) + ["braking"] * brakes
        if stops:
            emit(2, f"if {' or '.join(stops)}:")
            emit(3, "ts = 0.0")
        if modes[a] == MODE_WAYPOINT:
            emit(2, f"if i{a} < n{a}:")
            steer(3, a, f"atan2(wy{a} - y{a}, wx{a} - x{a})")
        else:
            steer(2, a, f"e if (e := lat_gain * (y_des - y{a})) == 0.0 else atan2(e, 1.0)")
        emit(2, f"if v{a} < ts:")
        emit(3, f"u = v{a} + acc{a} * dt", f"v{a} = u if u < ts else ts")
        emit(2, f"elif v{a} > ts:")
        rate = f"(brake_rate if braking else acc{a})" if brakes else f"acc{a}"
        emit(3, f"u = v{a} - {rate} * dt", f"v{a} = u if u > ts else ts",
             f"if v{a} < 0.0:")
        emit(4, f"v{a} = 0.0")
        new = "n" if a in deferred else ""
        emit(2, f"{new}x{a} = x{a} + v{a} * co{a} * dt",
             f"{new}y{a} = y{a} + v{a} * sn{a} * dt")
    if deferred:
        emit(2, f"{row('x{a}, y{a}', deferred)} = {row('nx{a}, ny{a}', deferred)}")
    if minima:
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
