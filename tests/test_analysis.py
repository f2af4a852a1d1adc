"""Statistics tests: the incomplete-beta implementation against closed
forms, the binomial interval against an exact tail-sum oracle, and the
campaign comparison helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falsify import analysis as an
from falsify.errors import DomainError


# ---------------------------------------------------------------------------
# Regularized incomplete beta
# ---------------------------------------------------------------------------


def test_beta_cdf_closed_forms():
    for x in np.linspace(0.0, 1.0, 21):
        assert an.regularized_incomplete_beta(1, 1, x) == pytest.approx(x, abs=1e-12)
        assert an.regularized_incomplete_beta(2, 1, x) == pytest.approx(
            x * x, abs=1e-12
        )
        # 1 - (1-x)^b for a=1.
        assert an.regularized_incomplete_beta(1, 7, x) == pytest.approx(
            1 - (1 - x) ** 7, abs=1e-12
        )


@given(
    a=st.floats(0.5, 50),
    b=st.floats(0.5, 50),
    x=st.floats(0.0, 1.0),
)
def test_beta_cdf_symmetry(a, b, x):
    # fl(1 - x) may round, moving the right side's point by up to 2**-54,
    # which near x = 0 moves I_x(a, b) ~ x**a by more than the tolerance.
    # Evaluate both sides at the x whose complement is exact.
    x = 1.0 - (1.0 - x)
    left = an.regularized_incomplete_beta(a, b, x)
    right = 1.0 - an.regularized_incomplete_beta(b, a, 1.0 - x)
    assert left == pytest.approx(right, abs=1e-9)
    assert 0.0 <= left <= 1.0


def test_beta_cdf_monotone_in_x():
    xs = np.linspace(0, 1, 50)
    vals = [an.regularized_incomplete_beta(3.5, 2.0, x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_beta_cdf_validation():
    with pytest.raises(DomainError):
        an.regularized_incomplete_beta(0, 1, 0.5)
    with pytest.raises(DomainError):
        an.regularized_incomplete_beta(1, 1, 1.5)


def test_beta_quantile_roundtrip():
    for p in (0.001, 0.025, 0.3, 0.7, 0.975, 0.999):
        x = an.beta_quantile(p, 5.0, 3.0)
        assert an.regularized_incomplete_beta(5.0, 3.0, x) == pytest.approx(
            p, abs=1e-8
        )


# ---------------------------------------------------------------------------
# Clopper-Pearson against an exact binomial-tail oracle
# ---------------------------------------------------------------------------


def binom_tail_ge(k, n, p):
    """P[X >= k] for X ~ Binomial(n, p), by direct summation."""
    return sum(
        math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1)
    )


def binom_tail_le(k, n, p):
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k + 1))


def oracle_clopper_pearson(k, n, confidence):
    """Definition-level oracle: bisect p on the exact binomial tails."""
    alpha = 1 - confidence

    def bisect(f, target):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if f(mid) < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    # P[X >= k] grows with p;  P[X <= k] shrinks with p.
    lo = 0.0 if k == 0 else bisect(lambda p: binom_tail_ge(k, n, p), alpha / 2)
    hi = (
        1.0
        if k == n
        else bisect(lambda p: -binom_tail_le(k, n, p), -(alpha / 2))
    )
    return lo, hi


def test_clopper_pearson_worked_examples():
    lo, hi = an.clopper_pearson(0, 10)
    assert lo == 0.0
    assert hi == pytest.approx(1 - 0.025 ** (1 / 10), abs=1e-9)
    assert hi == pytest.approx(0.30850, abs=1e-4)

    lo, hi = an.clopper_pearson(10, 10)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1 / 10), abs=1e-9)
    assert lo == pytest.approx(0.69150, abs=1e-4)

    lo, hi = an.clopper_pearson(5, 10)
    assert (lo, hi) == pytest.approx((0.18709, 0.81291), abs=1e-4)


def test_clopper_pearson_matches_tail_oracle_exhaustively():
    for n in range(1, 51):
        for k in range(n + 1):
            got = an.clopper_pearson(k, n, 0.95)
            want = oracle_clopper_pearson(k, n, 0.95)
            assert got == pytest.approx(want, abs=1e-6), (k, n)


@given(
    n=st.integers(1, 400),
    frac=st.floats(0, 1),
    confidence=st.sampled_from([0.8, 0.9, 0.95, 0.99]),
)
@settings(max_examples=80)
def test_clopper_pearson_properties(n, frac, confidence):
    k = round(frac * n)
    lo, hi = an.clopper_pearson(k, n, confidence)
    assert 0.0 <= lo <= k / n <= hi <= 1.0
    # Symmetry: lo(k, n) = 1 - hi(n - k, n).
    lo2, hi2 = an.clopper_pearson(n - k, n, confidence)
    assert lo == pytest.approx(1 - hi2, abs=1e-8)
    assert hi == pytest.approx(1 - lo2, abs=1e-8)


def test_clopper_pearson_width_shrinks_with_n():
    widths = []
    for n in (10, 40, 160, 640):
        lo, hi = an.clopper_pearson(n // 5, n)
        widths.append(hi - lo)
    assert all(b < a for a, b in zip(widths, widths[1:]))
    # ~1/sqrt(n) scaling: quadrupling n roughly halves the width.
    assert widths[2] / widths[1] == pytest.approx(0.5, abs=0.1)


def test_clopper_pearson_validation():
    with pytest.raises(DomainError):
        an.clopper_pearson(5, 0)
    with pytest.raises(DomainError):
        an.clopper_pearson(11, 10)
    with pytest.raises(DomainError):
        an.clopper_pearson(1, 10, confidence=1.0)


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def make_stats(k, n, confidence=0.95, sampler="halton"):
    if confidence is None:
        lo = hi = None
    else:
        lo, hi = an.clopper_pearson(k, n, confidence)
    return an.CampaignStats(
        scenario_id="1",
        sampler=sampler,
        samples=n,
        counterexamples=k,
        proportion=k / n,
        confidence=confidence,
        ci_lo=lo,
        ci_hi=hi,
    )


def test_speedup_factor():
    assert an.speedup_factor(396, 100) == pytest.approx(3.96)
    assert an.speedup_factor(100, 100) == 1.0
    with pytest.raises(DomainError):
        an.speedup_factor(10, 0)


def test_ci_width_ratio_identity():
    s = make_stats(20, 100)
    assert an.ci_width_ratio(s, s) == 1.0


def test_ci_width_ratio_quadruple_samples():
    # Same proportion, four times the sample count: width ratio near 1/2.
    serial = make_stats(20, 100)
    parallel = make_stats(80, 400)
    assert an.ci_width_ratio(parallel, serial) == pytest.approx(0.5, abs=0.1)


def test_ci_width_ratio_requires_cis():
    with_ci = make_stats(5, 50)
    without = make_stats(5, 50, confidence=None, sampler="mab")
    with pytest.raises(DomainError, match="no confidence interval"):
        an.ci_width_ratio(without, with_ci)
    mismatched = make_stats(5, 50, confidence=0.9)
    with pytest.raises(DomainError, match="confidence levels differ"):
        an.ci_width_ratio(mismatched, with_ci)
