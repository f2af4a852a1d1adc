"""Post-campaign statistics.

Exact binomial (Clopper-Pearson) confidence intervals on the unsafe
proportion, throughput comparisons between campaigns, and coverage /
diversity summaries of which feature buckets a campaign explored.

The interval endpoints are Beta-distribution quantiles.  They are
computed here from first principles — a continued-fraction evaluation of
the regularized incomplete beta function, inverted by bisection — so the
package needs no statistics library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .samplers import SAMPLERS

_CF_MAX_ITER = 300
_CF_EPS = 3e-16
_CF_TINY = 1e-300
QUANTILE_TOL = 1e-10


# ---------------------------------------------------------------------------
# Regularized incomplete beta and its inverse
# ---------------------------------------------------------------------------


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz's method for the continued fraction of I_x(a, b)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # Even step.
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        # Odd step.
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise DomainError(
        f"incomplete beta continued fraction failed to converge "
        f"(a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b): CDF of the Beta(a, b) distribution at x."""
    if a <= 0 or b <= 0:
        raise DomainError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # Use the fraction on whichever side converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def beta_quantile(p: float, a: float, b: float) -> float:
    """Inverse of regularized_incomplete_beta in x, to 1e-10 by bisection."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > QUANTILE_TOL:
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(a, b, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Clopper-Pearson interval
# ---------------------------------------------------------------------------


def clopper_pearson(k: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact binomial confidence interval for k successes in n trials."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise DomainError(f"k must be in [0, n={n}], got {k}")
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    lo = 0.0 if k == 0 else beta_quantile(alpha / 2.0, k, n - k + 1)
    hi = 1.0 if k == n else beta_quantile(1.0 - alpha / 2.0, k + 1, n - k)
    return lo, hi


# ---------------------------------------------------------------------------
# Campaign-level statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignStats:
    """Summary of one campaign, as emitted by reports and comparisons."""

    scenario_id: str
    sampler: str
    samples: int
    counterexamples: int
    proportion: float
    confidence: float | None
    ci_lo: float | None
    ci_hi: float | None
    bucket_histograms: dict[str, list[int]] = field(default_factory=dict)
    distinct_combinations: int = 0
    maximal_set_size: int = 0
    wall_seconds: float = 0.0

    @property
    def has_ci(self) -> bool:
        return self.ci_lo is not None and self.ci_hi is not None


def speedup_factor(parallel_samples: int, serial_samples: int) -> float:
    """How many samples the parallel run completed per serial sample."""
    if serial_samples < 1:
        raise DomainError(f"serial sample count must be >= 1, got {serial_samples}")
    if parallel_samples < 0:
        raise DomainError(f"sample counts must be >= 0, got {parallel_samples}")
    return parallel_samples / serial_samples


def ci_width_ratio(parallel: CampaignStats, serial: CampaignStats) -> float:
    """Width of the parallel CI over the width of the serial CI."""
    for stats, label in ((parallel, "parallel"), (serial, "serial")):
        if not stats.has_ci:
            raise DomainError(f"the {label} campaign has no confidence interval")
    if parallel.confidence != serial.confidence:
        raise DomainError(
            f"confidence levels differ: {parallel.confidence} vs {serial.confidence}"
        )
    serial_width = serial.ci_hi - serial.ci_lo
    if serial_width == 0.0:
        raise DomainError("serial confidence interval has zero width")
    return (parallel.ci_hi - parallel.ci_lo) / serial_width


def coverage_stats(result, confidence: float = 0.95) -> CampaignStats:
    """Distill a CampaignResult into a CampaignStats summary.

    The confidence interval is attached only for samplers whose draws
    ignore feedback (``feedback_free``: uniform and Halton); adaptive
    strategies bias the sample stream, so an interval over their hit rate
    would not estimate the true unsafe probability.
    """
    records = result.records
    if not records:
        raise DomainError("campaign produced no records to analyze")
    space = result.config.space
    n = len(records)
    k = sum(1 for r in records if r.is_counterexample)

    histograms = {name: [0] * space.bucket_count for name in space.names}
    combos = set()
    for rec in records:
        for name, bucket in zip(space.names, rec.sample.buckets):
            histograms[name][bucket] += 1
        if rec.is_counterexample:
            combos.add(rec.sample.buckets)

    sampler = result.config.sampler_name
    if SAMPLERS[sampler].feedback_free:
        lo, hi = clopper_pearson(k, n, confidence)
        conf: float | None = confidence
    else:
        lo = hi = conf = None

    return CampaignStats(
        scenario_id=result.config.scenario.scenario_id,
        sampler=sampler,
        samples=n,
        counterexamples=k,
        proportion=k / n,
        confidence=conf,
        ci_lo=lo,
        ci_hi=hi,
        bucket_histograms=histograms,
        distinct_combinations=len(combos),
        maximal_set_size=len(result.maximal),
        wall_seconds=result.wall_seconds,
    )
