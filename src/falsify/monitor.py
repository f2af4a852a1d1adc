"""Simulation results and metric monitors.

Every metric reads one number per agent: its smallest separation from
the ego over the run, ``min_separation(agent)``.  Two results provide it.
A ``Trajectory`` is a dense array record of a finished simulation, one row
per frame per agent; ``scenarios.simulate`` returns one.  A campaign does
not store a trajectory: ``scenarios.simulate_minima`` runs the kernel
with recording off, and its ``SeparationMinima`` holds only the minima,
bit for bit those of the trajectory.  Monitors reduce either to a
robustness value per metric; negative robustness means the requirement
was violated somewhere along the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, SpecError

EGO = "ego"

# Trajectory termination reasons, indexed by the kernel's termination code.
TERM_TIME_LIMIT = "time_limit"
TERM_CRASH = "crash"
TERM_CLEARED = "cleared"
TERMINATIONS = (TERM_TIME_LIMIT, TERM_CRASH, TERM_CLEARED)

DEFAULT_MAX_FRAMES = 300
DEFAULT_THRESHOLD = 5.0


class Trajectory:
    """Per-frame states for a fixed agent set.

    positions: (F, A, 2) meters; headings: (F, A) radians;
    speeds: (F, A) m/s.  Agent order is fixed and shared by all frames.
    """

    def __init__(
        self,
        agents: Sequence[str],
        positions: np.ndarray,
        headings: np.ndarray,
        speeds: np.ndarray,
        dt: float,
        termination: str,
        max_frames: int = DEFAULT_MAX_FRAMES,
    ):
        self.agents = tuple(str(a) for a in agents)
        if len(set(self.agents)) != len(self.agents):
            raise DomainError(f"agent names must be unique, got {self.agents}")
        if EGO not in self.agents:
            raise DomainError(f"trajectory must include an {EGO!r} agent")
        self.positions = np.asarray(positions, dtype=float)
        self.headings = np.asarray(headings, dtype=float)
        self.speeds = np.asarray(speeds, dtype=float)
        a = len(self.agents)
        f = self.positions.shape[0] if self.positions.ndim == 3 else 0
        if self.positions.shape != (f, a, 2) or f < 1:
            raise DomainError(
                f"positions must have shape (frames, {a}, 2) with >= 1 frame, "
                f"got {self.positions.shape}"
            )
        if self.headings.shape != (f, a) or self.speeds.shape != (f, a):
            raise DomainError("headings and speeds must have shape (frames, agents)")
        if f > max_frames:
            raise DomainError(f"frame count {f} exceeds maximum {max_frames}")
        if not dt > 0:
            raise DomainError(f"dt must be positive, got {dt}")
        if termination not in TERMINATIONS:
            raise DomainError(
                f"termination must be one of {TERMINATIONS}, got {termination!r}"
            )
        self.dt = float(dt)
        self.termination = termination
        for arr in (self.positions, self.headings, self.speeds):
            arr.setflags(write=False)

    @property
    def frame_count(self) -> int:
        return self.positions.shape[0]

    def agent_index(self, name: str) -> int:
        return _agent_index(self.agents, name)

    def separations(self, a: str, b: str) -> np.ndarray:
        """Center-to-center distance between two agents, per frame."""
        ia, ib = self.agent_index(a), self.agent_index(b)
        delta = self.positions[:, ia, :] - self.positions[:, ib, :]
        return np.hypot(delta[:, 0], delta[:, 1])

    def min_separation(self, agent: str) -> float:
        """The smallest of ``separations(EGO, agent)`` over the run."""
        return float(self.separations(EGO, agent).min())


class SeparationMinima:
    """Each agent's smallest separation from the ego over one run.

    What a campaign keeps of a simulation: ``minima[a]`` is bit for bit
    ``Trajectory.min_separation(agents[a])`` of the same run, and agent 0
    is the ego.
    """

    def __init__(self, agents: Sequence[str], minima: Sequence[float], termination: str):
        self.agents = tuple(agents)
        self.minima = tuple(float(m) for m in minima)
        if not self.agents or self.agents[0] != EGO:
            raise DomainError(f"agent 0 must be the {EGO!r} agent, got {self.agents}")
        if len(self.minima) != len(self.agents):
            raise DomainError(
                f"{len(self.minima)} minima for {len(self.agents)} agents"
            )
        if termination not in TERMINATIONS:
            raise DomainError(
                f"termination must be one of {TERMINATIONS}, got {termination!r}"
            )
        self.termination = termination

    def min_separation(self, agent: str) -> float:
        return self.minima[_agent_index(self.agents, agent)]


def _agent_index(agents: tuple[str, ...], name: str) -> int:
    try:
        return agents.index(name)
    except ValueError:
        raise SpecError(
            f"unknown agent {name!r}; the run has {list(agents)}"
        ) from None


Run = Trajectory | SeparationMinima


def _clearance(run: Run, agent: str, threshold: float) -> float:
    """The ego's worst margin over the threshold from one agent in the run.

    Rounded subtraction is monotone, so this is the minimum over frames of
    the separation minus the threshold, as it was computed before, and a
    NaN separation gives NaN.
    """
    return run.min_separation(agent) - threshold


def _check_threshold(threshold: float) -> None:
    # An infinite threshold would make every sample a counterexample, and
    # summary.json would hold a non-standard Infinity.
    if not 0 < threshold < math.inf:
        raise DomainError(f"threshold must be positive and finite, got {threshold}")


@dataclass(frozen=True)
class MinSeparation:
    """Requires the ego center to stay >= threshold meters from one agent.

    Robustness is the worst (minimum) clearance margin over the run.
    """

    agent: str
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        _check_threshold(self.threshold)

    @property
    def name(self) -> str:
        return f"min_separation[{self.agent}]"

    def robustness(self, run: Run) -> float:
        return _clearance(run, self.agent, self.threshold)

    def to_config(self) -> dict:
        """This metric as a spec entry that spec_from_config reads back."""
        return {"metric": "min_separation", "agent": self.agent,
                "threshold": self.threshold}


@dataclass(frozen=True)
class JointSeparation:
    """Flattens several clearance requirements into one all-or-nothing metric.

    Robustness is the best (maximum) of the per-agent worst-case margins, so
    the metric is violated only when the ego gets closer than the threshold
    to *every* listed agent at some point in the run.  Useful as a baseline
    against tracking the per-agent margins separately.
    """

    agents: tuple[str, ...]
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if not self.agents:
            raise DomainError("joint_separation needs at least one agent")
        _check_threshold(self.threshold)

    @property
    def name(self) -> str:
        return f"joint_separation[{','.join(self.agents)}]"

    def robustness(self, run: Run) -> float:
        return max(_clearance(run, agent, self.threshold) for agent in self.agents)

    def to_config(self) -> dict:
        """This metric as a spec entry that spec_from_config reads back."""
        return {"metric": "joint_separation", "agents": list(self.agents),
                "threshold": self.threshold}


Metric = MinSeparation | JointSeparation


class Specification:
    """Ordered list of metrics; order must match the campaign rulebook."""

    def __init__(self, metrics: Iterable[Metric]):
        self.metrics = tuple(metrics)
        if not self.metrics:
            raise DomainError("specification needs at least one metric")

    def __len__(self) -> int:
        return len(self.metrics)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.metrics)

    def __repr__(self) -> str:
        return f"Specification({list(self.names)})"


def evaluate(spec: Specification, run: Run) -> np.ndarray:
    """Robustness vector rho, one entry per metric, in spec order."""
    return np.array([m.robustness(run) for m in spec.metrics])


def falsification_vector(rho: Sequence[float]) -> tuple[bool, ...]:
    """bits[j] is True iff metric j was violated; rho == 0 counts as satisfied."""
    return tuple([float(r) < 0.0 for r in rho])


def is_counterexample(rho: Sequence[float]) -> bool:
    return any(falsification_vector(rho))


def spec_from_config(entries: Sequence[dict]) -> Specification:
    """Build a specification from config entries.

    Entries are one of:

    - {"metric": "min_separation", "agent": name, "threshold": meters?}
    - {"metric": "joint_separation", "agents": [names...], "threshold": meters?}

    threshold defaults to 5.0 meters.
    """
    metrics: list[Metric] = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SpecError(f"spec entry {k} must be a mapping, got {type(entry)}")
        kind = entry.get("metric")
        threshold = entry.get("threshold", DEFAULT_THRESHOLD)
        # A JSON number only: float() would also take "3" and true.
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise SpecError(f"spec entry {k}: threshold must be a number, "
                            f"got {threshold!r}")
        try:
            threshold = float(threshold)
        except OverflowError:  # an int too large for a float
            raise SpecError(f"spec entry {k}: threshold must be positive and finite, "
                            f"got {threshold}") from None
        if kind == "min_separation":
            unknown = set(entry) - {"metric", "agent", "threshold"}
            if unknown:
                raise SpecError(f"spec entry {k}: unknown keys {sorted(unknown)}")
            if "agent" not in entry:
                raise SpecError(f"spec entry {k}: missing required key 'agent'")
            metrics.append(MinSeparation(agent=str(entry["agent"]), threshold=threshold))
        elif kind == "joint_separation":
            unknown = set(entry) - {"metric", "agents", "threshold"}
            if unknown:
                raise SpecError(f"spec entry {k}: unknown keys {sorted(unknown)}")
            agents = entry.get("agents")
            if not isinstance(agents, (list, tuple)) or not agents:
                raise SpecError(
                    f"spec entry {k}: 'agents' must be a non-empty list of names"
                )
            metrics.append(
                JointSeparation(agents=tuple(str(a) for a in agents), threshold=threshold)
            )
        else:
            raise SpecError(
                f"spec entry {k}: unsupported metric {kind!r} "
                "(expected 'min_separation' or 'joint_separation')"
            )
    return Specification(metrics)
