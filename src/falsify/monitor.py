"""Trajectory container and metric monitors.

A trajectory is a dense array record of a finished simulation: one row
per frame per agent.  Monitors reduce a trajectory to a robustness value
per metric; negative robustness means the requirement was violated
somewhere along the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, SpecError

EGO = "ego"

# Trajectory termination reasons.
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

    @property
    def duration(self) -> float:
        """Simulated seconds covered by the run (frame 0 is the start state)."""
        return (self.frame_count - 1) * self.dt

    def agent_index(self, name: str) -> int:
        try:
            return self.agents.index(name)
        except ValueError:
            raise SpecError(
                f"unknown agent {name!r}; trajectory has {list(self.agents)}"
            ) from None

    def separations(self, a: str, b: str) -> np.ndarray:
        """Center-to-center distance between two agents, per frame."""
        ia, ib = self.agent_index(a), self.agent_index(b)
        delta = self.positions[:, ia, :] - self.positions[:, ib, :]
        return np.hypot(delta[:, 0], delta[:, 1])


@dataclass(frozen=True)
class MinSeparation:
    """Requires the ego center to stay >= threshold meters from one agent.

    Robustness is the worst (minimum) clearance margin over the run.
    """

    agent: str
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if not self.threshold > 0:
            raise DomainError(f"threshold must be positive, got {self.threshold}")

    @property
    def name(self) -> str:
        return f"min_separation[{self.agent}]"

    def robustness(self, traj: Trajectory) -> float:
        return float(self.separations_margin(traj).min())

    def separations_margin(self, traj: Trajectory) -> np.ndarray:
        return traj.separations(EGO, self.agent) - self.threshold

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
        if not self.threshold > 0:
            raise DomainError(f"threshold must be positive, got {self.threshold}")

    @property
    def name(self) -> str:
        return f"joint_separation[{','.join(self.agents)}]"

    def robustness(self, traj: Trajectory) -> float:
        parts = [
            MinSeparation(agent, self.threshold).robustness(traj)
            for agent in self.agents
        ]
        return float(max(parts))

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


def evaluate(spec: Specification, traj: Trajectory) -> np.ndarray:
    """Robustness vector rho, one entry per metric, in spec order."""
    return np.array([m.robustness(traj) for m in spec.metrics])


def falsification_vector(rho: Sequence[float]) -> tuple[bool, ...]:
    """bits[j] is True iff metric j was violated; rho == 0 counts as satisfied."""
    return tuple(bool(r < 0.0) for r in np.asarray(rho, dtype=float))


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
        threshold = float(entry.get("threshold", DEFAULT_THRESHOLD))
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
