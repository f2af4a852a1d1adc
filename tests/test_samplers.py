"""Sampler tests: radical-inverse oracle, UCB arithmetic, bandit
bookkeeping, tie-breaking, concentration, and snapshot round-trips."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from falsify import rulebook as rb
from falsify import samplers as sa
from falsify.errors import ConfigError, DomainError, StateError
from falsify.space import Dimension, FeatureSpace


def unit_space(d=2, buckets=5):
    return FeatureSpace(
        [Dimension(f"x{i}", 0.0, 1.0) for i in range(d)], bucket_count=buckets
    )


def feedback_for(sampler, sample, violated):
    """Single-metric feedback: rho sign chosen by the oracle flag."""
    return sa.SampleFeedback.from_rho(sample, (-1.0,) if violated else (1.0,))


def run_bandit(space, seed, oracle, steps, rulebook=None):
    """Drive a MAB sampler with synchronous feedback from a bucket oracle."""
    rulebook = rulebook or rb.disconnected(1)
    sampler = sa.make_sampler("mab", space, seed, rulebook=rulebook)
    for _ in range(steps):
        s = sampler.next_sample()
        sampler.update(feedback_for(sampler, s, oracle(s.buckets)))
    return sampler


# ---------------------------------------------------------------------------
# SampleFeedback
# ---------------------------------------------------------------------------


def test_feedback_consistency_enforced():
    # The verdict is derived from rho and cannot be passed in.
    space = unit_space(1)
    s = space.make_sample([0.5])
    fb = sa.SampleFeedback(s, (-1.0, 0.0, float("nan"), 2.0))
    assert fb.b == (True, False, False, False) and fb.is_counterexample
    assert all(type(x) is bool for x in fb.b)
    assert not sa.SampleFeedback(s, (0.0, 1.0)).is_counterexample
    with pytest.raises(TypeError):
        sa.SampleFeedback(s, (-1.0,), (True,), False)
    with pytest.raises(TypeError):
        sa.SampleFeedback(s, (-1.0,), b=(False,))


def test_feedback_from_rho_strict_sign():
    space = unit_space(1)
    s = space.make_sample([0.5])
    assert not sa.SampleFeedback.from_rho(s, (0.0,)).is_counterexample
    assert sa.SampleFeedback.from_rho(s, (-1e-12,)).is_counterexample


# ---------------------------------------------------------------------------
# compute_ucb
# ---------------------------------------------------------------------------


def test_ucb_worked_value():
    got = sa.compute_ucb(0.5, visits=4, t=100)
    assert got == pytest.approx(0.5 + math.sqrt(0.5 * math.log(100)), abs=1e-12)
    assert got == pytest.approx(2.0174271293851465, abs=1e-12)


def test_ucb_no_bonus_at_t1():
    assert sa.compute_ucb(0.0, visits=1, t=1) == 0.0


def test_ucb_asymptotics():
    t = 100
    assert sa.compute_ucb(1.0, visits=int(2e7 * math.log(t)) + 1, t=t) < 1.0 + 1e-3


def test_ucb_preconditions():
    with pytest.raises(DomainError):
        sa.compute_ucb(0.5, visits=0, t=10)
    with pytest.raises(DomainError):
        sa.compute_ucb(0.5, visits=3, t=0)


@given(
    mu=st.floats(0, 1),
    visits=st.integers(1, 10**6),
    t=st.integers(2, 10**6),
)
def test_ucb_monotonicity(mu, visits, t):
    q = sa.compute_ucb(mu, visits, t)
    assert sa.compute_ucb(mu, visits + 1, t) < q      # decreasing in visits
    assert sa.compute_ucb(mu, visits, t + 1) > q       # increasing in t


# ---------------------------------------------------------------------------
# Construction and lifecycle
# ---------------------------------------------------------------------------


def test_ucb_scores_are_compute_ucb_entry_by_entry():
    # The sampler's Q matrix is the formula criterion 03 checks, exactly:
    # compute_ucb(mu_hat, visits, t) where visited, +inf where not.
    space = unit_space(d=3, buckets=6)
    sampler = sa.make_sampler("mab", space, 3, rulebook=rb.total_order(2))
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(300):
        s = sampler.next_sample()
        sampler.update(sa.SampleFeedback.from_rho(s, rng.choice([-1.0, 1.0], 2)))
        t = sampler.issued + 1
        q, mu, visits = sampler.ucb_scores(t), sampler.mu_hat(), sampler.visits
        for (i, j), n in np.ndenumerate(visits):
            if n:
                assert q[i, j] == sa.compute_ucb(mu[i, j], int(n), t)
                checked += 1
            else:
                assert q[i, j] == np.inf
    assert checked > 1000


def test_unknown_sampler_name():
    with pytest.raises(ConfigError, match="unknown sampler"):
        sa.make_sampler("annealing", unit_space(), seed=0)


def test_mab_requires_rulebook():
    with pytest.raises(ConfigError, match="rulebook"):
        sa.make_sampler("mab", unit_space(), seed=0)


def test_sampler_names_are_the_class_names_in_order():
    classes = (sa.UniformSampler, sa.HaltonSampler, sa.CrossEntropySampler,
               sa.MultiArmedBanditSampler)
    assert sa.SAMPLER_NAMES == tuple(cls.name for cls in classes)
    assert sa.SAMPLER_NAMES == ("uniform", "halton", "cross-entropy", "mab")
    for cls in classes:
        sampler = sa.make_sampler(cls.name, unit_space(), seed=0,
                                  rulebook=rb.disconnected(1))
        assert type(sampler) is cls and sa.SAMPLERS[cls.name] is cls


@pytest.mark.parametrize("name", sa.SAMPLER_NAMES)
def test_member_reoffer_skips_insert_maximal(name, monkeypatch):
    calls = []
    insert = rb.Rulebook.insert_maximal

    def counted(self, maximal, bits):
        calls.append(bits)
        return insert(self, maximal, bits)

    monkeypatch.setattr(rb.Rulebook, "insert_maximal", counted)
    space = unit_space(1)
    sampler = sa.make_sampler(name, space, seed=0, rulebook=rb.disconnected(1))
    for _ in range(3):
        sampler.update(feedback_for(sampler, space.make_sample([0.1]), True))
    assert calls == [(True,)]
    assert sampler.maximal == [(True,)]
    assert sampler.snapshot()["maximal"] == [[True]]


@pytest.mark.parametrize("name", ["uniform", "halton", "cross-entropy"])
def test_sampler_without_rulebook_draws_until_a_counterexample(name):
    space = unit_space(2)
    sampler = sa.make_sampler(name, space, seed=0)
    s = sampler.next_sample()
    sampler.update(feedback_for(sampler, s, violated=False))
    with pytest.raises(StateError, match="no rulebook"):
        sampler.update(feedback_for(sampler, s, violated=True))
    sampler.next_sample()
    assert sampler.maximal == []


def test_alpha_validated():
    with pytest.raises(ConfigError, match="alpha"):
        sa.CrossEntropySampler(unit_space(), seed=0, alpha=0.0)
    with pytest.raises(ConfigError, match="alpha"):
        sa.make_sampler("cross-entropy", unit_space(), seed=0, alpha=1.5)


def test_update_validates_buckets():
    space = unit_space(2)
    sampler = sa.make_sampler("uniform", space, seed=0)
    bad = sa.SampleFeedback.from_rho(unit_space(1).make_sample([0.5]), (1.0,))
    with pytest.raises(StateError, match="bucket indices"):
        sampler.update(bad)


# ---------------------------------------------------------------------------
# Determinism (all strategies)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sa.SAMPLER_NAMES)
def test_same_seed_same_sequence(name):
    def drive(seed):
        sampler = sa.make_sampler(
            name, unit_space(3, 4), seed, rulebook=rb.disconnected(1)
        )
        out = []
        for k in range(30):
            s = sampler.next_sample()
            out.append(s.values)
            sampler.update(feedback_for(sampler, s, s.buckets[0] == 2))
        return out

    assert drive(seed=42) == drive(seed=42)
    if name != "halton":  # halton ignores the seed by design
        assert drive(seed=42) != drive(seed=43)


def test_values_always_in_range():
    for name in sa.SAMPLER_NAMES:
        space = FeatureSpace([Dimension("a", -2.0, 3.0), Dimension("b", 10, 11)])
        sampler = sa.make_sampler(name, space, 7, rulebook=rb.disconnected(1))
        for _ in range(40):
            s = sampler.next_sample()
            for v, d, j in zip(s.values, space.dims, s.buckets):
                assert d.lo <= v <= d.hi
                lo, hi = space.bucket_bounds(space.dims.index(d), j)
                assert lo <= v < hi or (j == space.bucket_count - 1 and v <= hi)


# ---------------------------------------------------------------------------
# Halton
# ---------------------------------------------------------------------------


def exact_radical_inverse(base, index):
    """Independent oracle in exact rational arithmetic."""
    total = Fraction(0)
    scale = Fraction(1, base)
    while index:
        index, digit = divmod(index, base)
        total += digit * scale
        scale /= base
    return total


def test_radical_inverse_base2_first_values():
    got = [sa.radical_inverse(2, i) for i in (1, 2, 3)]
    assert got == [0.5, 0.25, 0.75]


@pytest.mark.parametrize("base", [2, 3])
def test_radical_inverse_matches_exact_oracle(base):
    for index in range(1, 101):
        exact = exact_radical_inverse(base, index)
        assert sa.radical_inverse(base, index) == float(exact)


def test_halton_uses_first_primes():
    space = unit_space(d=6)
    sampler = sa.make_sampler("halton", space, seed=0)
    assert sampler.bases == (2, 3, 5, 7, 11, 13)


def test_halton_skips_index_zero():
    sampler = sa.make_sampler("halton", unit_space(d=1), seed=0)
    assert sampler.next_sample().values == (0.5,)
    assert sampler.next_sample().values == (0.25,)
    assert sampler.next_sample().values == (0.75,)


def test_halton_scaled_into_range():
    space = FeatureSpace([Dimension("a", 4.0, 8.0)])
    sampler = sa.make_sampler("halton", space, seed=0)
    assert sampler.next_sample().values == (6.0,)  # 4 + 0.5 * 4


@pytest.mark.parametrize("name", sa.SAMPLER_NAMES)
def test_only_samplers_that_draw_from_a_generator_build_one(name, monkeypatch):
    built = []
    rng = sa.Sampler._rng
    monkeypatch.setattr(sa.Sampler, "_rng",
                        lambda self, sid: built.append(sid) or rng(self, sid))
    sampler = sa.make_sampler(name, unit_space(3, 4), 9, rulebook=rb.disconnected(1))
    for _ in range(6):
        sampler.next_sample()
    assert built == ([] if name == "halton" else list(range(6)))


def star_discrepancy_proxy(points):
    """Max |empirical - volume| over anchored boxes [0,u)x[0,v) at sample corners."""
    pts = np.asarray(points)
    n = len(pts)
    worst = 0.0
    for u, v in pts:
        inside = np.sum((pts[:, 0] < u) & (pts[:, 1] < v)) / n
        worst = max(worst, abs(inside - u * v))
    return worst


def test_halton_lower_discrepancy_than_uniform():
    n = 1000
    halton = sa.make_sampler("halton", unit_space(d=2, buckets=1), seed=0)
    h_pts = [halton.next_sample().values for _ in range(n)]
    u_pts = np.random.default_rng(0).random((n, 2))
    assert star_discrepancy_proxy(h_pts) < star_discrepancy_proxy(u_pts)


# ---------------------------------------------------------------------------
# Cross-entropy
# ---------------------------------------------------------------------------


def test_ce_smoothing_worked_example():
    space = unit_space(d=1, buckets=4)
    sampler = sa.make_sampler(
        "cross-entropy", space, seed=0, alpha=0.1, rulebook=rb.disconnected(1)
    )
    sample = space.make_sample([0.6])  # bucket 2 of 4
    assert sample.buckets == (2,)
    sampler.update(feedback_for(sampler, sample, violated=True))
    assert np.allclose(sampler.weights[0], [0.225, 0.225, 0.325, 0.225])


def test_ce_safe_sample_leaves_weights_unchanged():
    space = unit_space(d=2, buckets=4)
    sampler = sa.make_sampler("cross-entropy", space, seed=0)
    before = sampler.weights.copy()
    sampler.update(feedback_for(sampler, space.make_sample([0.1, 0.9]), False))
    assert np.array_equal(sampler.weights, before)


def test_ce_rows_stay_normalized():
    space = unit_space(d=3, buckets=6)
    sampler = sa.make_sampler(
        "cross-entropy", space, seed=5, rulebook=rb.disconnected(1)
    )
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = sampler.next_sample()
        sampler.update(feedback_for(sampler, s, bool(rng.random() < 0.3)))
    assert np.allclose(sampler.weights.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(sampler.weights >= 0)


def test_ce_concentrates_on_rewarded_bucket():
    space = unit_space(d=1, buckets=5)
    sampler = sa.make_sampler(
        "cross-entropy", space, seed=3, rulebook=rb.disconnected(1)
    )
    for _ in range(300):
        s = sampler.next_sample()
        sampler.update(feedback_for(sampler, s, s.buckets[0] == 4))
    assert sampler.weights[0].argmax() == 4
    assert sampler.weights[0, 4] > 0.5


# ---------------------------------------------------------------------------
# Multi-armed bandit
# ---------------------------------------------------------------------------


def test_mab_round_robin_initialization():
    space = unit_space(d=2, buckets=3)
    sampler = sa.make_sampler("mab", space, 0, rulebook=rb.disconnected(1))
    seen = [sampler.next_sample().buckets for _ in range(3)]
    assert seen == [(0, 0), (1, 1), (2, 2)]  # third call probes bucket 2


def test_mab_visit_accounting():
    space = unit_space(d=2, buckets=4)
    oracle = lambda buckets: buckets[0] == 1
    sampler = run_bandit(space, seed=9, oracle=oracle, steps=50)
    # Every dimension's visit row counts all completed samples.
    assert np.all(sampler.visits.sum(axis=1) == 50)
    assert sampler.issued == sampler.completed == 50
    total = sampler.count_sum()
    assert np.all(total <= sampler.visits)
    for matrix in sampler.counts.values():
        assert np.all(matrix <= sampler.visits)
    assert np.all(sampler.mu_hat() >= 0) and np.all(sampler.mu_hat() <= 1)


def test_mab_safe_update_touches_only_visits():
    space = unit_space(d=2, buckets=3)
    sampler = sa.make_sampler("mab", space, 0, rulebook=rb.disconnected(1))
    s = sampler.next_sample()
    sampler.update(feedback_for(sampler, s, violated=False))
    assert sampler.visits[0, s.buckets[0]] == 1
    assert sampler.visits[1, s.buckets[1]] == 1
    assert sampler.counts == {}


def test_mab_maximal_key_eviction_under_chain():
    # Under a two-metric chain, falsifying both strictly dominates
    # falsifying only the first; the dominated key's counts are dropped.
    space = unit_space(d=1, buckets=2)
    chain = rb.total_order(2)
    sampler = sa.make_sampler("mab", space, 0, rulebook=chain)
    s = space.make_sample([0.1])

    sampler.update(sa.SampleFeedback.from_rho(s, (-1.0, 1.0)))  # b1 = (T, F)
    assert list(sampler.counts) == [(True, False)]

    sampler.update(sa.SampleFeedback.from_rho(s, (-1.0, -2.0)))  # b2 = (T, T)
    assert list(sampler.counts) == [(True, True)]  # b1 evicted with its matrix
    assert sampler.counts[(True, True)][0, 0] == 1

    # A later (T, F) is strictly dominated by the stored (T, T): rejected,
    # nothing counted anywhere.
    sampler.update(sa.SampleFeedback.from_rho(s, (-1.0, 3.0)))
    assert list(sampler.counts) == [(True, True)]
    assert sampler.counts[(True, True)][0, 0] == 1


def test_mab_keys_always_an_antichain():
    space = unit_space(d=2, buckets=3)
    book = rb.build(3, [(0, 1), (1, 2)])
    sampler = sa.make_sampler("mab", space, 2, rulebook=book)
    rng = np.random.default_rng(1)
    for _ in range(150):
        s = sampler.next_sample()
        rho = tuple(rng.choice([-1.0, 1.0]) for _ in range(3))
        sampler.update(sa.SampleFeedback.from_rho(s, rho))
    keys = list(sampler.counts)
    for a in keys:
        for b in keys:
            if a != b:
                assert not book.bits_strictly_dominates(a, b)


def test_mab_running_count_sum_tracks_the_matrices():
    # Evictions under a three-metric chain, then a snapshot round trip: the
    # running sum always equals the members' matrices summed afresh.
    space = unit_space(d=2, buckets=3)
    book = rb.build(3, [(0, 1), (1, 2)])
    sampler = sa.make_sampler("mab", space, 4, rulebook=book)
    rng = np.random.default_rng(8)

    def resummed(sampler):
        return sum(sampler.counts.values(), np.zeros_like(sampler.visits))

    evictions = 0
    for _ in range(120):
        s = sampler.next_sample()
        before = set(sampler.counts)
        sampler.update(sa.SampleFeedback.from_rho(
            s, tuple(rng.choice([-1.0, 1.0]) for _ in range(3))))
        evictions += len(before - set(sampler.counts))
        assert np.array_equal(sampler.count_sum(), resummed(sampler))
    assert evictions > 0 and sampler.count_sum().sum() > 0

    restored = sa.restore(json.loads(json.dumps(sampler.snapshot())), space, book)
    assert np.array_equal(restored.count_sum(), resummed(restored))
    assert np.array_equal(restored.count_sum(), sampler.count_sum())
    for _ in range(30):
        s = restored.next_sample()
        restored.update(sa.SampleFeedback.from_rho(
            s, tuple(rng.choice([-1.0, 1.0]) for _ in range(3))))
        assert np.array_equal(restored.count_sum(), resummed(restored))


def test_mab_wrong_bit_length_rejected():
    space = unit_space(d=1, buckets=2)
    sampler = sa.make_sampler("mab", space, 0, rulebook=rb.disconnected(2))
    s = space.make_sample([0.3])
    with pytest.raises(DomainError, match="rulebook tracks 2"):
        sampler.update(sa.SampleFeedback.from_rho(s, (-1.0,)))


def test_mab_uniform_tie_breaks():
    # All mu_hat zero and equal visits: every bucket must be picked with
    # frequency 1/N within 3 sigma over 10000 draws.
    space = unit_space(d=2, buckets=5)
    sampler = sa.make_sampler("mab", space, 123, rulebook=rb.disconnected(1))
    for _ in range(5):  # warm-up: one visit everywhere, all safe
        s = sampler.next_sample()
        sampler.update(feedback_for(sampler, s, violated=False))
    draws = 10000
    counts = np.zeros(5, dtype=int)
    for _ in range(draws):
        counts[sampler.next_sample().buckets[0]] += 1
    p = 1 / 5
    sigma = math.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(counts / draws - p) <= 3 * sigma), counts


def loop_draw(self, sample_id, rng):
    """MultiArmedBanditSampler._draw as one numpy pass per dimension: the oracle."""
    space = self.space
    if self.init_cursor < space.bucket_count:
        buckets = [self.init_cursor] * space.d
        self.init_cursor += 1
    else:
        q = self.ucb_scores()
        buckets = []
        for i in range(space.d):
            row = q[i]
            ties = np.flatnonzero(row == row.max())
            buckets.append(int(ties[rng.integers(ties.size)]))
    values = []
    for i, b in enumerate(buckets):
        lo, hi = space.bucket_bounds(i, b)
        v = lo + rng.random() * (hi - lo)
        while space.bucket_index(i, v) != b:
            v = math.nextafter(v, lo)
        values.append(v)
    return values, buckets


@pytest.mark.parametrize("seed", range(6))
def test_mab_draw_matches_per_dimension_loop(seed):
    space = FeatureSpace(
        [Dimension(f"x{i}", -1.0 - i, 0.1 + 3.0 * i) for i in range(7)],
        bucket_count=4,
    )
    new, old = (
        sa.make_sampler("mab", space, seed, rulebook=rb.disconnected(2))
        for _ in range(2)
    )
    old._draw = loop_draw.__get__(old)
    rng = np.random.default_rng(1000 + seed)
    pending, tie_patterns = [], set()
    for step in range(150):
        if new.init_cursor == space.bucket_count:
            q = new.ucb_scores()
            ties = (q == q.max(axis=1, keepdims=True)).sum(axis=1)
            tie_patterns.add(frozenset((ties > 1).tolist()))
        sample = new.next_sample()
        assert sample == old.next_sample()
        pending.append(sample)
        # No feedback until past warm-up, so the first bandit draws see
        # every bucket unvisited; then late, out-of-order feedback leaves
        # buckets partly visited, with ties in some dimensions only.
        while step > space.bucket_count + 2 and pending and rng.random() < 0.7:
            done = pending.pop(int(rng.integers(len(pending))))
            feedback = sa.SampleFeedback.from_rho(done, rng.normal(size=2) + 0.5)
            new.update(feedback)
            old.update(feedback)
    np.testing.assert_array_equal(new.visits, old.visits)
    # Draws where every dimension, some, and none had several tied buckets.
    assert tie_patterns == {frozenset({True}), frozenset({True, False}),
                            frozenset({False})}


def test_numpy_draws_the_mab_sampler_relies_on():
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    assert a.integers(1) == 0
    assert a.random() == b.random()  # integers(1) consumed nothing
    assert a.random(5).tolist() == [b.random() for _ in range(5)]


def test_mab_tolerates_async_feedback():
    # next_sample may run ahead of update; unvisited buckets score +inf
    # and are explored first once initialization calls are exhausted.
    space = unit_space(d=1, buckets=3)
    sampler = sa.make_sampler("mab", space, 0, rulebook=rb.disconnected(1))
    pending = [sampler.next_sample() for _ in range(6)]  # no feedback yet
    assert sampler.issued == 6 and sampler.completed == 0
    assert np.all(sampler.visits == 0)
    for s in pending:
        sampler.update(feedback_for(sampler, s, violated=False))
    assert sampler.completed == 6
    assert np.all(sampler.visits.sum(axis=1) == 6)


def test_mab_concentrates_on_unsafe_bucket():
    # One bucket of one dimension is always unsafe, everything else safe:
    # the bandit should funnel most of that dimension's visits into it.
    space = unit_space(d=2, buckets=5)
    target = 3
    for seed in range(10):
        sampler = sa.make_sampler(
            "mab", space, seed, rulebook=rb.disconnected(1)
        )
        shares = []
        for step in range(1, 501):
            s = sampler.next_sample()
            sampler.update(feedback_for(sampler, s, s.buckets[0] == target))
            if step in (100, 300, 500):
                shares.append(sampler.visits[0, target] / step)
        assert shares[0] < shares[1] < shares[2], (seed, shares)
        assert shares[-1] > 0.5, (seed, shares)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def test_fresh_mab_snapshot_all_zero():
    space = unit_space(d=2, buckets=3)
    sampler = sa.make_sampler("mab", space, 0, rulebook=rb.disconnected(1))
    snap = sampler.snapshot()
    assert snap["sampler"] == "mab"
    assert np.all(np.array(snap["visits"]) == 0)
    assert snap["maximal"] == []
    json.dumps(snap)  # strictly serializable even with unvisited buckets


def test_snapshot_row_sums_track_completions():
    space = unit_space(d=3, buckets=4)
    oracle = lambda buckets: buckets[1] == 0
    sampler = run_bandit(space, seed=4, oracle=oracle, steps=37)
    snap = sampler.snapshot()
    assert np.all(np.array(snap["visits"]).sum(axis=1) == 37)


def test_snapshot_does_not_perturb_sequence():
    space = unit_space(d=2, buckets=4)
    a = sa.make_sampler("mab", space, 11, rulebook=rb.disconnected(1))
    b = sa.make_sampler("mab", space, 11, rulebook=rb.disconnected(1))
    for _ in range(10):
        for smp in (a, b):
            s = smp.next_sample()
            smp.update(feedback_for(smp, s, s.buckets[0] == 1))
        a.snapshot()  # extra snapshots on one copy only
    assert a.next_sample() == b.next_sample()


@pytest.mark.parametrize("name", sa.SAMPLER_NAMES)
def test_snapshot_serialize_restore_roundtrip(name):
    space = unit_space(d=2, buckets=4)
    book = rb.total_order(2)

    def fb(sampler, s):
        rho = (-1.0 if s.buckets[0] == 1 else 1.0,
               -1.0 if s.buckets[1] == 2 else 1.0)
        return sa.SampleFeedback.from_rho(s, rho)

    original = sa.make_sampler(name, space, 21, rulebook=book)
    for _ in range(25):
        s = original.next_sample()
        original.update(fb(original, s))

    wire = json.dumps(original.snapshot())
    restored = sa.restore(json.loads(wire), space, rulebook=book)

    for _ in range(25):
        s1, s2 = original.next_sample(), restored.next_sample()
        assert s1 == s2
        original.update(fb(original, s1))
        restored.update(fb(restored, s2))
    assert restored.maximal == original.maximal
    if name == "mab":
        assert np.array_equal(original.visits, restored.visits)
        assert list(original.counts) == list(restored.counts)


def test_restore_validates_space():
    sampler = sa.make_sampler("uniform", unit_space(d=2), seed=0)
    snap = sampler.snapshot()
    with pytest.raises(StateError, match="dimensions"):
        sa.restore(snap, unit_space(d=3), rulebook=None)
    with pytest.raises(StateError, match="bucket count"):
        sa.restore(snap, unit_space(d=2, buckets=9))
    without_maximal = {k: v for k, v in snap.items() if k != "maximal"}
    with pytest.raises(StateError, match="malformed"):
        sa.restore(without_maximal, unit_space(d=2))


MAB_SNAPSHOT_KEYS = (
    "sampler", "seed", "issued", "completed", "dimensions", "bucket_count",
    "maximal", "init_cursor", "visits", "mu_hat", "ucb", "maximal_counts",
)


def _mab_snapshot():
    space = unit_space(d=2, buckets=4)
    book = rb.total_order(2)
    sampler = sa.make_sampler("mab", space, 21, rulebook=book)
    for _ in range(25):
        s = sampler.next_sample()
        rho = (-1.0 if s.buckets[0] == 1 else 1.0, -1.0 if s.buckets[1] == 2 else 1.0)
        sampler.update(sa.SampleFeedback.from_rho(s, rho))
    assert sampler.maximal
    return json.loads(json.dumps(sampler.snapshot())), space, book


def test_mab_snapshot_keys_are_all_listed():
    snap, _, _ = _mab_snapshot()
    assert sorted(snap) == sorted(MAB_SNAPSHOT_KEYS)


@pytest.mark.parametrize("key", MAB_SNAPSHOT_KEYS)
def test_restore_without_a_key(key):
    snap, space, book = _mab_snapshot()
    del snap[key]
    if key in ("mu_hat", "ucb"):  # derived views, recomputed on restore
        restored = sa.restore(snap, space, book)
        assert restored.snapshot()[key] == _mab_snapshot()[0][key]
        return
    with pytest.raises(StateError):
        sa.restore(snap, space, book)


@pytest.mark.parametrize("key, value", [
    ("seed", "x"),
    ("issued", None),
    ("completed", [1]),
    ("maximal", 3),
    ("init_cursor", "x"),
    ("visits", [[0, 1], [2, 3]]),
    ("visits", "x"),
    ("maximal_counts", []),
    ("maximal_counts", [[[0]]]),
    ("sampler", "nonesuch"),
])
def test_restore_rejects_a_malformed_key(key, value):
    snap, space, book = _mab_snapshot()
    snap[key] = value
    with pytest.raises(StateError, match="malformed"):
        sa.restore(snap, space, book)


def test_restore_rejects_malformed_cross_entropy_weights():
    space = unit_space(d=2, buckets=4)
    snap = sa.make_sampler("cross-entropy", space, 0).snapshot()
    snap["weights"] = [[0.25] * 4]
    with pytest.raises(StateError, match="malformed"):
        sa.restore(snap, space)
