"""Tests for trajectory containers and the separation monitor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falsify.errors import DomainError, SpecError
from falsify.monitor import (
    EGO,
    TERM_CRASH,
    TERM_TIME_LIMIT,
    JointSeparation,
    MinSeparation,
    SeparationMinima,
    Specification,
    Trajectory,
    evaluate,
    falsification_vector,
    is_counterexample,
    spec_from_config,
)


def make_traj(ego_xy, other_xys, agents=None, dt=0.1, termination=TERM_TIME_LIMIT):
    """Trajectory from ego path + per-agent paths, zero headings/speeds."""
    ego_xy = np.asarray(ego_xy, dtype=float)
    others = [np.asarray(o, dtype=float) for o in other_xys]
    if agents is None:
        agents = [EGO] + [f"adv{i}" for i in range(len(others))]
    f = ego_xy.shape[0]
    positions = np.stack([ego_xy] + others, axis=1)
    zeros = np.zeros((f, len(agents)))
    return Trajectory(agents, positions, zeros, zeros, dt, termination)


def straight_line(start, end, frames):
    t = np.linspace(0.0, 1.0, frames)[:, None]
    return np.asarray(start) * (1 - t) + np.asarray(end) * t


class TestTrajectory:
    def test_requires_ego(self):
        pos = np.zeros((1, 1, 2))
        with pytest.raises(DomainError):
            Trajectory(["adv"], pos, np.zeros((1, 1)), np.zeros((1, 1)), 0.1, TERM_CRASH)

    def test_requires_frames(self):
        with pytest.raises(DomainError):
            Trajectory(
                [EGO], np.zeros((0, 1, 2)), np.zeros((0, 1)), np.zeros((0, 1)), 0.1,
                TERM_CRASH,
            )

    def test_frame_cap(self):
        f = 301
        with pytest.raises(DomainError):
            Trajectory(
                [EGO],
                np.zeros((f, 1, 2)),
                np.zeros((f, 1)),
                np.zeros((f, 1)),
                0.1,
                TERM_TIME_LIMIT,
            )

    def test_unknown_termination(self):
        with pytest.raises(DomainError):
            make_traj([[0, 0]], [[[9, 0]]], termination="whatever")

    def test_duplicate_agents(self):
        pos = np.zeros((1, 2, 2))
        with pytest.raises(DomainError):
            Trajectory(
                [EGO, EGO], pos, np.zeros((1, 2)), np.zeros((1, 2)), 0.1, TERM_CRASH
            )

    def test_arrays_read_only(self):
        traj = make_traj([[0, 0]], [[[9, 0]]])
        with pytest.raises(ValueError):
            traj.positions[0, 0, 0] = 1.0

    def test_separations(self):
        traj = make_traj([[0, 0], [0, 0]], [[[3, 4], [6, 8]]])
        assert traj.separations(EGO, "adv0").tolist() == [5.0, 10.0]

    def test_unknown_agent(self):
        traj = make_traj([[0, 0]], [[[9, 0]]])
        with pytest.raises(SpecError, match="ghost"):
            traj.separations(EGO, "ghost")


class TestSeparationMinima:
    def test_reads_like_the_trajectory(self):
        traj = make_traj([[0, 0], [0, 0]], [[[3, 4], [6, 8]], [[1, 0], [0, 2]]])
        minima = SeparationMinima(
            traj.agents, [traj.min_separation(a) for a in traj.agents], traj.termination
        )
        assert minima.min_separation("adv0") == 5.0
        spec = Specification([MinSeparation("adv0", 4.0),
                              JointSeparation(("adv0", "adv1"), 2.5),
                              MinSeparation(EGO, 1.0)])
        assert evaluate(spec, minima).tobytes() == evaluate(spec, traj).tobytes()

    def test_unknown_agent_raises_what_the_trajectory_raises(self):
        traj = make_traj([[0, 0]], [[[9, 0]]])
        minima = SeparationMinima(traj.agents, [0.0, 9.0], TERM_TIME_LIMIT)
        errors = []
        for run in (traj, minima):
            with pytest.raises(SpecError) as info:
                MinSeparation("ghost").robustness(run)
            errors.append(str(info.value))
        assert errors[0] == errors[1] and "ghost" in errors[0]

    @pytest.mark.parametrize("agents, minima, termination", [
        (("adv", EGO), [1.0, 0.0], TERM_CRASH),
        ((), [], TERM_CRASH),
        ((EGO, "adv"), [0.0], TERM_CRASH),
        ((EGO,), [0.0], "exploded"),
    ])
    def test_validation(self, agents, minima, termination):
        with pytest.raises(DomainError):
            SeparationMinima(agents, minima, termination)

    @given(st.lists(st.floats(allow_nan=True) | st.sampled_from([np.nan, np.inf]),
                    min_size=1, max_size=30),
           st.floats(0.01, 100))
    @settings(max_examples=200)
    def test_clearance_is_the_minimum_minus_the_threshold(self, column, threshold):
        # Rounded subtraction is monotone, so min(sep - t) == min(sep) - t,
        # NaN included: what the metrics computed before, bit for bit.
        seps = np.abs(np.array(column))
        traj = make_traj(np.zeros((len(seps), 2)),
                         [np.stack([seps, np.zeros_like(seps)], axis=1)])
        with np.errstate(invalid="ignore"):
            want = float((traj.separations(EGO, "adv0") - threshold).min())
        got = MinSeparation("adv0", threshold).robustness(traj)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestMinSeparation:
    def test_constant_separation(self):
        frames = 40
        traj = make_traj(
            straight_line([0, 0], [0, 0], frames),
            [np.tile([12.0, 0.0], (frames, 1))],
        )
        rho = evaluate(Specification([MinSeparation("adv0", 5.0)]), traj)
        assert rho.tolist() == [7.0]

    def test_violation_depth(self):
        # Closest approach 3.2 m against a 5 m floor: margin is -1.8.
        ego = straight_line([0, 0], [0, 0], 30)
        adv = straight_line([20, 3.2], [-20, 3.2], 30)
        # Force an exact closest approach at x == 0.
        adv[15] = [0.0, 3.2]
        traj = make_traj(ego, [adv])
        rho = evaluate(Specification([MinSeparation("adv0", 5.0)]), traj)
        assert rho[0] == pytest.approx(-1.8)

    def test_two_adversaries(self):
        ego = straight_line([0, 0], [0, 0], 21)
        near = straight_line([30, 4], [-30, 4], 21)
        near[10] = [0.0, 4.0]
        far = np.tile([0.0, 9.0], (21, 1))
        traj = make_traj(ego, [near, far])
        spec = Specification([MinSeparation("adv0"), MinSeparation("adv1")])
        rho = evaluate(spec, traj)
        # Frame-by-frame minimum oracle.
        expect = [
            min(np.hypot(*(ego[f] - near[f])) for f in range(21)) - 5.0,
            min(np.hypot(*(ego[f] - far[f])) for f in range(21)) - 5.0,
        ]
        assert rho == pytest.approx(expect)
        assert rho == pytest.approx([-1.0, 4.0])

    def test_unknown_agent_is_spec_error(self):
        traj = make_traj([[0, 0]], [[[9, 0]]])
        spec = Specification([MinSeparation("nobody")])
        with pytest.raises(SpecError):
            evaluate(spec, traj)

    def test_threshold_must_be_positive(self):
        with pytest.raises(DomainError):
            MinSeparation("adv0", 0.0)

    @pytest.mark.parametrize("threshold", [np.inf, np.nan])
    def test_threshold_must_be_finite(self, threshold):
        # An infinite threshold would make every sample a counterexample.
        with pytest.raises(DomainError, match="positive and finite"):
            MinSeparation("adv0", threshold)
        with pytest.raises(DomainError, match="positive and finite"):
            JointSeparation(("adv0",), threshold)

    @given(
        st.integers(2, 40),
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.floats(-np.pi, np.pi),
        st.integers(0, 2**31),
    )
    @settings(max_examples=100)
    def test_rigid_motion_invariance(self, frames, tx, ty, angle, seed):
        rng = np.random.default_rng(seed)
        ego = rng.uniform(-30, 30, size=(frames, 2))
        adv = rng.uniform(-30, 30, size=(frames, 2))
        spec = Specification([MinSeparation("adv0", 5.0)])
        base = evaluate(spec, make_traj(ego, [adv]))[0]
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        shift = np.array([tx, ty])
        moved = evaluate(
            spec, make_traj(ego @ rot.T + shift, [adv @ rot.T + shift])
        )[0]
        assert moved == pytest.approx(base, abs=1e-9)

    @given(st.integers(2, 40), st.integers(1, 10), st.integers(0, 2**31))
    @settings(max_examples=100)
    def test_appending_frames_never_raises_rho(self, frames, extra, seed):
        rng = np.random.default_rng(seed)
        ego = rng.uniform(-30, 30, size=(frames + extra, 2))
        adv = rng.uniform(-30, 30, size=(frames + extra, 2))
        spec = Specification([MinSeparation("adv0", 5.0)])
        short = evaluate(spec, make_traj(ego[:frames], [adv[:frames]]))[0]
        full = evaluate(spec, make_traj(ego, [adv]))[0]
        assert full <= short + 1e-12


class TestJointSeparation:
    @staticmethod
    def passer(offset, frames=21):
        """Drives past a parked ego, closest (exactly ``offset`` m) mid-run."""
        return straight_line([30.0, offset], [-30.0, offset], frames)

    @pytest.mark.parametrize("offset0, offset1, violated", [
        (4.0, 3.0, True),
        (4.0, 9.0, False),
        (9.0, 3.0, False),
        (9.0, 8.0, False),
        (5.0, 3.0, False),
    ])
    def test_violated_only_when_every_agent_comes_close(self, offset0, offset1,
                                                        violated):
        traj = make_traj(np.zeros((21, 2)),
                         [self.passer(offset0), self.passer(offset1)])
        spec = Specification([JointSeparation(("adv0", "adv1"), 5.0)])
        rho = evaluate(spec, traj)
        assert rho.tolist() == [max(offset0, offset1) - 5.0]
        assert is_counterexample(rho) == violated

    @given(st.integers(1, 40), st.integers(1, 4), st.floats(0.5, 20),
           st.integers(0, 2**31))
    @settings(max_examples=100)
    def test_is_max_of_min_separations(self, frames, m, threshold, seed):
        rng = np.random.default_rng(seed)
        ego = rng.uniform(-30, 30, size=(frames, 2))
        traj = make_traj(ego, [rng.uniform(-30, 30, size=(frames, 2))
                               for _ in range(m)])
        agents = tuple(f"adv{i}" for i in range(m))
        joint = JointSeparation(agents, threshold).robustness(traj)
        parts = [MinSeparation(a, threshold).robustness(traj) for a in agents]
        assert type(joint) is float
        assert np.float64(joint).tobytes() == np.float64(max(parts)).tobytes()


class TestFalsificationVector:
    @pytest.mark.parametrize(
        "rho,expect",
        [
            ([7.0], (False,)),
            ([-1.8, 4.0], (True, False)),
            ([0.0], (False,)),
            ([-0.0], (False,)),
            ([-1e-12, 1e-12], (True, False)),
        ],
    )
    def test_strict_negative_convention(self, rho, expect):
        assert falsification_vector(rho) == expect

    def test_is_counterexample(self):
        assert not is_counterexample([0.0, 1.0])
        assert is_counterexample([0.0, -0.5])

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6), st.data())
    def test_monotone_under_extra_violations(self, rho, data):
        if not is_counterexample(rho):
            # Push one coordinate negative: must become a counterexample.
            idx = data.draw(st.integers(0, len(rho) - 1))
            rho = list(rho)
            rho[idx] = -abs(rho[idx]) - 1.0
        assert is_counterexample(rho)


class TestSpecFromConfig:
    def test_builds_ordered_metrics(self):
        spec = spec_from_config(
            [
                {"metric": "min_separation", "agent": "adv0"},
                {"metric": "min_separation", "agent": "adv1", "threshold": 3.0},
            ]
        )
        assert len(spec) == 2
        assert spec.metrics[0].threshold == 5.0
        assert spec.metrics[1].threshold == 3.0
        assert spec.names == ("min_separation[adv0]", "min_separation[adv1]")

        # to_config writes each metric kind as the entry that built it.
        metrics = spec.metrics + (JointSeparation(("adv0", "adv1"), 2.5),)
        entries = [m.to_config() for m in metrics]
        assert entries[1] == {
            "metric": "min_separation", "agent": "adv1", "threshold": 3.0
        }
        assert entries[2] == {
            "metric": "joint_separation", "agents": ["adv0", "adv1"],
            "threshold": 2.5,
        }
        assert spec_from_config(entries).metrics == metrics

    def test_rejects_unknown_metric(self):
        with pytest.raises(SpecError):
            spec_from_config([{"metric": "ttc", "agent": "adv0"}])

    def test_rejects_unknown_keys(self):
        with pytest.raises(SpecError):
            spec_from_config(
                [{"metric": "min_separation", "agent": "adv0", "bogus": 1}]
            )

    def test_requires_agent(self):
        with pytest.raises(SpecError):
            spec_from_config([{"metric": "min_separation"}])
