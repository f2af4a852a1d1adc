"""Sample-generation strategies for falsification campaigns.

Four interchangeable strategies over a bucketized feature space:

- ``uniform``: independent uniform draws per dimension.
- ``halton``: quasi-random low-discrepancy sequence (radical inverse in
  the first d prime bases).
- ``cross-entropy``: per-dimension categorical bucket weights nudged
  toward buckets that produced counterexamples.
- ``mab``: the upper-confidence-bound bandit over buckets, tracking
  per-bucket visit counts and per-maximal-counterexample hit counts.

Every sampler owns its campaign's maximal set: the counterexample bit
vectors that no other strictly dominates under the rulebook, in admission
order.  ``update`` offers the set only bits that are not yet members.

All randomness is drawn from a generator derived from (master seed,
sample id), so a sampler's output for sample k depends only on the seed,
k, and the feedback absorbed so far — never on call interleaving.  That
makes serial replays and snapshot restores exact, and it keeps the
uniform and Halton streams identical no matter how many workers consume
them.

Feedback may arrive late or out of order (workers finish when they
finish); ``update`` is therefore decoupled from ``next_sample``.  Bandit
bucket statistics only count *completed* samples, and buckets that have
no completed visits yet score an infinite exploration bonus so they are
tried first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, StateError
from .monitor import falsification_vector
from .rulebook import FalsificationVector, Rulebook
from .space import FeatureSpace, SampleVector

DEFAULT_ALPHA = 0.1

SAMPLER_NAMES = ("uniform", "halton", "cross-entropy", "mab")


@dataclass(frozen=True)
class SampleFeedback:
    """Outcome of one simulated sample; its verdict is derived from rho."""

    sample: SampleVector
    rho: tuple[float, ...]
    b: FalsificationVector = field(init=False)  # b[j] is rho[j] < 0
    is_counterexample: bool = field(init=False)  # any(b)

    def __post_init__(self):
        bits = falsification_vector(self.rho)
        object.__setattr__(self, "b", bits)
        object.__setattr__(self, "is_counterexample", any(bits))

    @classmethod
    def from_rho(cls, sample: SampleVector, rho) -> "SampleFeedback":
        return cls(sample, tuple(float(r) for r in rho))


def compute_ucb(mu_hat: float, visits: int, t: int) -> float:
    """Upper confidence bound mu_hat + sqrt((2 / visits) * ln t).

    The confidence parameter is tied to time (1/delta = t), so the bonus
    grows as ln t and shrinks as visits accumulate; at t = 1 it is zero.
    """
    if visits < 1:
        raise DomainError(f"visits must be >= 1, got {visits}")
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    return float(mu_hat) + math.sqrt((2.0 / visits) * math.log(t))


class Sampler:
    """Common shell: seed handling, counters, maximal set, sampling loop.

    Subclasses implement ``_draw(sample_id, rng) -> (values, buckets)``
    and optionally ``_absorb(feedback)``.  ``rng`` is the sample's own
    Generator, seeded by ``(seed, sample_id)``; a sampler whose draw reads
    none sets ``draws_rng = False`` and gets None, so none is built.  A
    sampler whose draw reads no feedback either sets ``feedback_free =
    True``: its ``draw(sid)`` then depends on the seed and the id alone,
    so any copy of it, in any process, draws sample ``sid`` alike.  A
    sampler is built over its feature space and needs a rulebook once it
    is fed a counterexample.
    """

    name = "base"
    draws_rng = True
    feedback_free = False

    def __init__(
        self, space: FeatureSpace, seed: int, rulebook: Rulebook | None = None
    ):
        if not isinstance(space, FeatureSpace):
            raise ConfigError(f"expected a FeatureSpace, got {type(space)}")
        self.space = space
        self.seed = int(seed)
        self.rulebook = rulebook
        self.issued = 0     # next_sample calls so far
        self.completed = 0  # update calls so far
        self.maximal: list[FalsificationVector] = []  # in admission order

    def _rng(self, sample_id: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, sample_id))

    # -- sampling ----------------------------------------------------------

    def next_sample(self) -> SampleVector:
        sample = self.draw(self.issued)
        self.issued += 1
        return sample

    def draw(self, sample_id: int) -> SampleVector:
        """Sample ``sample_id``; counts nothing, and for a feedback-free
        sampler changes nothing either."""
        rng = self._rng(sample_id) if self.draws_rng else None
        values, buckets = self._draw(sample_id, rng)
        return SampleVector(
            tuple(float(v) for v in values), tuple(int(b) for b in buckets)
        )

    def _draw(self, sample_id: int, rng: np.random.Generator):
        raise NotImplementedError

    # -- feedback ----------------------------------------------------------

    def update(self, feedback) -> None:
        """Fold in one completed sample: reads ``feedback.sample``, ``.b`` and
        ``.is_counterexample`` (a SampleFeedback or a campaign SampleRecord).
        """
        space = self.space
        buckets = feedback.sample.buckets
        if len(buckets) != space.d:
            raise StateError(
                f"feedback has {len(buckets)} bucket indices, space has {space.d}"
            )
        for i, j in enumerate(buckets):
            if not 0 <= j < space.bucket_count:
                raise StateError(f"bucket index {j} out of range (dimension {i})")
        if feedback.is_counterexample:
            bits = feedback.b
            if bits not in self.maximal:
                if self.rulebook is None:
                    raise StateError(f"{self.name!r} sampler has no rulebook")
                if len(bits) != self.rulebook.metric_count:
                    raise DomainError(
                        f"falsification vector has {len(bits)} bits, "
                        f"rulebook tracks {self.rulebook.metric_count} metrics"
                    )
                self.maximal, _ = self.rulebook.insert_maximal(self.maximal, bits)
        self._absorb(feedback)
        self.completed += 1

    def _absorb(self, feedback: SampleFeedback) -> None:
        pass

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state summary; never touches random streams."""
        space = self.space
        snap = {
            "sampler": self.name,
            "seed": self.seed,
            "issued": self.issued,
            "completed": self.completed,
            "dimensions": list(space.names),
            "bucket_count": space.bucket_count,
            "maximal": [list(bits) for bits in self.maximal],
        }
        snap.update(self._snapshot_extra())
        return snap

    def _snapshot_extra(self) -> dict:
        return {}

    def _restore_extra(self, snap: dict) -> None:
        pass


class UniformSampler(Sampler):
    name = "uniform"
    feedback_free = True

    def _draw(self, sample_id, rng):
        space = self.space
        values = [d.lo + rng.random() * d.width for d in space.dims]
        return values, space.buckets_of(values)


def radical_inverse(base: int, index: int) -> float:
    """Digit-reversal fraction of ``index`` in ``base``, in [0, 1).

    Computed in exact integer arithmetic with a single final division,
    so the result is the correctly rounded value of the rational number.
    """
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    if index < 0:
        raise DomainError(f"index must be >= 0, got {index}")
    num, den = 0, 1
    while index > 0:
        index, digit = divmod(index, base)
        num = num * base + digit
        den *= base
    return num / den


def first_primes(count: int) -> tuple[int, ...]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


class HaltonSampler(Sampler):
    """Low-discrepancy sequence; deterministic, ignores the seed."""

    name = "halton"
    draws_rng = False
    feedback_free = True

    def __init__(self, space, seed, rulebook=None):
        super().__init__(space, seed, rulebook)
        self.bases = first_primes(space.d)

    def _draw(self, sample_id, rng):
        space = self.space
        # Index 0 of the raw sequence is the all-zero point; skip it.
        index = sample_id + 1
        values = [
            d.lo + radical_inverse(base, index) * d.width
            for d, base in zip(space.dims, self.bases)
        ]
        return values, space.buckets_of(values)

    def _snapshot_extra(self):
        return {"bases": list(self.bases)}


class CrossEntropySampler(Sampler):
    """Categorical bucket weights smoothed toward counterexample buckets."""

    name = "cross-entropy"

    def __init__(self, space, seed, alpha: float = DEFAULT_ALPHA, rulebook=None):
        super().__init__(space, seed, rulebook)
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self.weights = np.full(
            (space.d, space.bucket_count), 1.0 / space.bucket_count
        )

    def _draw(self, sample_id, rng):
        space = self.space
        buckets = [
            int(rng.choice(space.bucket_count, p=self.weights[i]))
            for i in range(space.d)
        ]
        return space.sample_in_buckets(buckets, rng), buckets

    def _absorb(self, feedback):
        if not feedback.is_counterexample:
            return
        a = self.alpha
        for i, j in enumerate(feedback.sample.buckets):
            row = self.weights[i]
            row *= 1.0 - a
            row[j] += a
            row /= row.sum()

    def _snapshot_extra(self):
        return {"alpha": self.alpha, "weights": self.weights.tolist()}

    def _restore_extra(self, snap):
        self.weights = _table(snap["weights"], self.weights)


class MultiArmedBanditSampler(Sampler):
    """Per-dimension UCB over buckets with maximal-counterexample counts.

    Visits count completed samples only.  Counterexample counts are kept
    per member of the maximal set that ``Sampler.update`` maintains: a
    counterexample is counted only if its vector is a member, and a member
    evicted by a dominating newcomer loses its counts.  The per-bucket
    reward estimate is the proportion of completed visits that produced
    any currently-maximal counterexample.
    """

    name = "mab"

    def __init__(self, space, seed, rulebook=None):
        super().__init__(space, seed, rulebook)
        shape = (space.d, space.bucket_count)
        self.visits = np.zeros(shape, dtype=np.int64)
        self.counts: dict[FalsificationVector, np.ndarray] = {}
        self._count_sum = np.zeros(shape, dtype=np.int64)  # sum of counts
        self.init_cursor = 0

    # -- statistics --------------------------------------------------------

    def count_sum(self) -> np.ndarray:
        """Sum of counterexample counts over all maximal vectors (d x N).

        Kept in step with ``counts`` as they change, not re-summed.
        """
        return self._count_sum.copy()

    def mu_hat(self) -> np.ndarray:
        """Counterexample proportion per bucket; 0 where never visited."""
        visits = self.visits
        with np.errstate(invalid="ignore", divide="ignore"):
            mu = np.where(visits > 0, self._count_sum / visits, 0.0)
        return mu

    def ucb_scores(self, t: int | None = None) -> np.ndarray:
        """Q matrix for time t (default: the next draw); +inf where unvisited."""
        if t is None:
            t = self.issued + 1
        visits = self.visits
        with np.errstate(invalid="ignore", divide="ignore"):
            q = self._count_sum / visits + np.sqrt(2.0 / visits * math.log(t))
        return np.where(visits > 0, q, np.inf)

    # -- sampling ----------------------------------------------------------

    def _draw(self, sample_id, rng):
        space = self.space
        n = space.bucket_count
        if self.init_cursor < n:
            # Round-robin warm-up: call r probes bucket r in every dimension.
            buckets = [self.init_cursor] * space.d
            self.init_cursor += 1
        else:
            # Ties for every dimension at once.  A single tied bucket needs
            # no draw: rng.integers(1) returns 0 and leaves the stream as is.
            q = self.ucb_scores()
            buckets = []
            for row in (q == q.max(axis=1, keepdims=True)).tolist():
                ties = [j for j, tied in enumerate(row) if tied]
                buckets.append(ties[rng.integers(len(ties))] if len(ties) > 1
                               else ties[0])
        return space.sample_in_buckets(buckets, rng), buckets

    # -- feedback ----------------------------------------------------------

    def _absorb(self, feedback):
        space = self.space
        buckets = feedback.sample.buckets
        for i, j in enumerate(buckets):
            self.visits[i, j] += 1
        if not feedback.is_counterexample:
            return
        key = feedback.b
        if key not in self.maximal:
            return  # strictly dominated by a member: not counted
        if key not in self.counts:
            # Just admitted: drop the counts of the members it evicted.
            for old in [k for k in self.counts if k not in self.maximal]:
                self._count_sum -= self.counts.pop(old)
            self.counts[key] = np.zeros(
                (space.d, space.bucket_count), dtype=np.int64
            )
        matrix, total = self.counts[key], self._count_sum
        for i, j in enumerate(buckets):
            matrix[i, j] += 1
            total[i, j] += 1

    # -- introspection -----------------------------------------------------

    def _snapshot_extra(self):
        # Q is +inf at never-visited buckets; emit None there so the
        # snapshot stays strict JSON.  mu_hat and Q are derived views —
        # restore() recomputes them from visits and counts.
        ucb = [
            [q if math.isfinite(q) else None for q in row]
            for row in self.ucb_scores().tolist()
        ]
        return {
            "init_cursor": self.init_cursor,
            "visits": self.visits.tolist(),
            "mu_hat": self.mu_hat().tolist(),
            "ucb": ucb,
            "maximal_counts": [self.counts[k].tolist() for k in self.maximal],
        }

    def _restore_extra(self, snap):
        self.init_cursor = int(snap["init_cursor"])
        self.visits = _table(snap["visits"], self.visits)
        self.counts = {
            key: _table(matrix, self.visits)
            for key, matrix in zip(self.maximal, snap["maximal_counts"], strict=True)
        }
        self._count_sum = sum(self.counts.values(), np.zeros_like(self.visits))


def _table(rows, like: np.ndarray) -> np.ndarray:
    """A snapshot's table, read as an array of ``like``'s dtype and shape."""
    table = np.array(rows, dtype=like.dtype)
    if table.shape != like.shape:
        raise ValueError(f"table of shape {table.shape}, expected {like.shape}")
    return table


def make_sampler(
    name: str,
    space: FeatureSpace,
    seed: int,
    rulebook: Rulebook | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> Sampler:
    """Construct a sampler over ``space`` by strategy name."""
    if name == "uniform":
        return UniformSampler(space, seed, rulebook)
    if name == "halton":
        return HaltonSampler(space, seed, rulebook)
    if name == "cross-entropy":
        return CrossEntropySampler(space, seed, alpha=alpha, rulebook=rulebook)
    if name == "mab":
        if rulebook is None:
            raise ConfigError("the 'mab' sampler needs a rulebook")
        return MultiArmedBanditSampler(space, seed, rulebook)
    raise ConfigError(f"unknown sampler {name!r}; expected one of {SAMPLER_NAMES}")


def restore(
    snap: dict,
    space: FeatureSpace,
    rulebook: Rulebook | None = None,
) -> Sampler:
    """Rebuild a sampler from snapshot() to continue its exact sequence;
    a missing or malformed key raises StateError."""
    if snap.get("dimensions") != list(space.names):
        raise StateError(
            f"snapshot dimensions {snap.get('dimensions')} do not match "
            f"the feature space {list(space.names)}"
        )
    if snap.get("bucket_count") != space.bucket_count:
        raise StateError(
            f"snapshot bucket count {snap.get('bucket_count')} does not "
            f"match the feature space ({space.bucket_count})"
        )
    try:
        sampler = make_sampler(snap["sampler"], space, int(snap["seed"]), rulebook,
                               float(snap.get("alpha", DEFAULT_ALPHA)))
        sampler.issued = int(snap["issued"])
        sampler.completed = int(snap["completed"])
        # Read back as written, not offered to the rulebook again.
        sampler.maximal = [tuple(bool(b) for b in bits) for bits in snap["maximal"]]
        sampler._restore_extra(snap)
    except KeyError as exc:
        raise StateError(f"malformed sampler snapshot: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise StateError(f"malformed sampler snapshot: {exc}") from exc
    return sampler
