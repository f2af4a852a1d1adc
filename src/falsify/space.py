"""Sampling domain: named continuous dimensions split into equal-width buckets.

Every dimension shares the same bucket count N.  Values live in domain
units; helpers convert between raw values and bucket indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

DEFAULT_BUCKET_COUNT = 10


@dataclass(frozen=True)
class Dimension:
    """One continuous feature with an inclusive [lo, hi] range."""

    name: str
    lo: float
    hi: float
    description: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"dimension {self.name!r}: bounds must be finite")
        if not self.lo < self.hi:
            raise DomainError(
                f"dimension {self.name!r}: lo ({self.lo}) must be < hi ({self.hi})"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class SampleVector:
    """A point in the feature space plus the bucket index of each coordinate."""

    values: tuple[float, ...]
    buckets: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.buckets):
            raise DomainError("values and buckets must have equal length")


class FeatureSpace:
    """Immutable set of dimensions with a shared bucket count.

    Instances are safe to share across worker threads; all methods are
    read-only.  Random draws take the caller's generator so streams are
    never shared implicitly.
    """

    def __init__(
        self, dims: Iterable[Dimension], bucket_count: int = DEFAULT_BUCKET_COUNT
    ):
        dims = tuple(dims)
        if not dims:
            raise DomainError("feature space needs at least one dimension")
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise DomainError(f"dimension names must be unique, got {names}")
        if bucket_count < 1:
            raise DomainError(f"bucket_count must be >= 1, got {bucket_count}")
        self.dims = dims
        self.bucket_count = int(bucket_count)

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    def __repr__(self) -> str:
        return f"FeatureSpace({list(self.names)}, N={self.bucket_count})"

    def _check_dim(self, dim: int) -> Dimension:
        if not 0 <= dim < self.d:
            raise DomainError(f"dimension index {dim} out of range [0, {self.d})")
        return self.dims[dim]

    def bucket_index(self, dim: int, value: float) -> int:
        """Map a value to its bucket in [0, N); hi falls into the last bucket."""
        d = self._check_dim(dim)
        if not d.lo <= value <= d.hi:
            raise DomainError(
                f"value {value} outside range [{d.lo}, {d.hi}] of dimension {d.name!r}"
            )
        n = self.bucket_count
        w = d.width / n
        idx = min(int(math.floor(n * (value - d.lo) / d.width)), n - 1)
        # The division above and the edge arithmetic in bucket_bounds can
        # round to opposite sides of a shared edge; realign against the
        # exact edges so the returned bucket's interval contains value.
        while idx > 0 and value < d.lo + idx * w:
            idx -= 1
        while idx < n - 1 and value >= d.lo + (idx + 1) * w:
            idx += 1
        return idx

    def bucket_bounds(self, dim: int, bucket: int) -> tuple[float, float]:
        """Half-open [lo, hi) interval covered by a bucket.

        The final bucket's upper edge is pinned to the dimension's hi so
        the buckets tile the range exactly despite float rounding.
        """
        d = self._check_dim(dim)
        n = self.bucket_count
        if not 0 <= bucket < n:
            raise DomainError(f"bucket {bucket} out of range [0, {n})")
        w = d.width / n
        hi = d.hi if bucket == n - 1 else d.lo + (bucket + 1) * w
        return d.lo + bucket * w, hi

    def sample_in_buckets(
        self, buckets: Sequence[int], rng: np.random.Generator
    ) -> list[float]:
        """One uniform draw within each dimension's bucket, dimension by dimension.

        The offsets come from one ``rng.random(d)``, the same values as d
        scalar draws; each result maps back to its bucket.
        """
        self._check_length(buckets)
        out = []
        for dim, (bucket, u) in enumerate(zip(buckets, rng.random(self.d).tolist())):
            lo, hi = self.bucket_bounds(dim, bucket)
            v = lo + u * (hi - lo)
            # Undo float round-up onto the upper edge; only the last bucket is closed.
            while v > hi or (v == hi and bucket < self.bucket_count - 1):
                v = math.nextafter(v, lo)
            out.append(v)
        return out

    def buckets_of(self, values: Sequence[float]) -> tuple[int, ...]:
        self._check_length(values)
        return tuple(self.bucket_index(i, v) for i, v in enumerate(values))

    def make_sample(self, values: Sequence[float]) -> SampleVector:
        return SampleVector(tuple(float(v) for v in values), self.buckets_of(values))

    def _check_length(self, values: Sequence[float]) -> None:
        if len(values) != self.d:
            raise DomainError(f"expected {self.d} values, got {len(values)}")
