"""Tests for the feature space: bucketing, unit-cube maps, edge handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falsify.errors import DomainError
from falsify.space import Dimension, FeatureSpace, SampleVector


def make_dim(name="x", lo=0.0, hi=10.0):
    return Dimension(name, lo, hi)


finite_bounds = st.tuples(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6),
).filter(lambda t: t[0] < t[1] and (t[1] - t[0]) > 1e-6)


class TestDimension:
    def test_width(self):
        assert make_dim(lo=2.0, hi=6.0).width == 4.0

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_rejects_empty_range(self, lo, hi):
        with pytest.raises(DomainError):
            Dimension("x", lo, hi)

    @pytest.mark.parametrize("lo,hi", [(float("nan"), 1.0), (0.0, float("inf"))])
    def test_rejects_non_finite(self, lo, hi):
        with pytest.raises(DomainError):
            Dimension("x", lo, hi)


class TestSampleVector:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            SampleVector((1.0, 2.0), (0,))


class TestFeatureSpaceConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DomainError):
            FeatureSpace([make_dim("a"), make_dim("a")])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            FeatureSpace([])

    def test_bad_bucket_count(self):
        with pytest.raises(DomainError):
            FeatureSpace([make_dim()], bucket_count=0)

    def test_basic_props(self):
        space = FeatureSpace([make_dim("a"), make_dim("b", -1, 1)], bucket_count=4)
        assert space.d == 2
        assert space.names == ("a", "b")
        assert space.bucket_count == 4


class TestBucketing:
    def test_known_index(self):
        # 5 buckets over [0, 10]: width 2, so 6.2 lands in bucket 3 ([6, 8)).
        space = FeatureSpace([make_dim(lo=0, hi=10)], bucket_count=5)
        assert space.bucket_index(0, 6.2) == 3

    def test_hi_goes_to_last_bucket(self):
        space = FeatureSpace([make_dim(lo=0, hi=10)], bucket_count=5)
        assert space.bucket_index(0, 10.0) == 4

    def test_lo_goes_to_first_bucket(self):
        space = FeatureSpace([make_dim(lo=0, hi=10)], bucket_count=5)
        assert space.bucket_index(0, 0.0) == 0

    def test_out_of_range_names_dimension(self):
        space = FeatureSpace([make_dim(name="speed")])
        with pytest.raises(DomainError, match="speed"):
            space.bucket_index(0, 11.0)
        with pytest.raises(DomainError, match="speed"):
            space.bucket_index(0, -0.5)

    @given(bounds=finite_bounds, n=st.integers(1, 50), u=st.floats(0, 1))
    def test_value_within_its_bucket_bounds(self, bounds, n, u):
        lo, hi = bounds
        space = FeatureSpace([Dimension("x", lo, hi)], bucket_count=n)
        v = lo + u * (hi - lo)
        v = min(max(v, lo), hi)
        b = space.bucket_index(0, v)
        blo, bhi = space.bucket_bounds(0, b)
        # hi is folded into the final bucket, so allow v == bhi there.
        assert blo <= v <= bhi
        if b < n - 1:
            assert v < bhi or math.isclose(v, bhi, rel_tol=0, abs_tol=1e-9)

    @given(bounds=finite_bounds, n=st.integers(1, 20))
    def test_buckets_tile_the_range(self, bounds, n):
        lo, hi = bounds
        space = FeatureSpace([Dimension("x", lo, hi)], bucket_count=n)
        edges = [space.bucket_bounds(0, b) for b in range(n)]
        assert edges[0][0] == lo
        assert edges[-1][1] == hi
        for (_, prev_hi), (next_lo, _) in zip(edges, edges[1:]):
            assert prev_hi == next_lo

    @given(
        bounds=finite_bounds,
        n=st.integers(1, 20),
        us=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    )
    def test_monotone_in_value(self, bounds, n, us):
        lo, hi = bounds
        space = FeatureSpace([Dimension("x", lo, hi)], bucket_count=n)
        a, b = sorted(lo + u * (hi - lo) for u in us)
        a, b = max(a, lo), min(b, hi)
        if a <= b:
            assert space.bucket_index(0, a) <= space.bucket_index(0, b)


class TestSampleInBucket:
    @given(
        bounds=finite_bounds,
        n=st.integers(1, 30),
        bucket_u=st.floats(0, 1),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200)
    def test_draw_maps_back_to_bucket(self, bounds, n, bucket_u, seed):
        lo, hi = bounds
        space = FeatureSpace([Dimension("x", lo, hi)], bucket_count=n)
        bucket = min(int(bucket_u * n), n - 1)
        rng = np.random.default_rng(seed)
        v, = space.sample_in_buckets([bucket], rng)
        assert space.bucket_index(0, v) == bucket

    @given(bounds=finite_bounds, n=st.integers(1, 30))
    @settings(max_examples=200)
    def test_top_of_bucket_draw_maps_back(self, bounds, n):
        # The largest offset below 1 can round a draw onto the bucket's
        # upper edge, which only the last bucket includes.
        class TopRng:
            def random(self, d):
                return np.full(d, math.nextafter(1.0, 0.0))

        lo, hi = bounds
        space = FeatureSpace([Dimension("x", lo, hi)], bucket_count=n)
        for bucket in range(n):
            v, = space.sample_in_buckets([bucket], TopRng())
            assert space.bucket_index(0, v) == bucket

    def test_draws_are_uniform_within_bucket(self):
        # Bucket 3 of 5 over [0, 10] covers [6, 8): mean should sit near 7.
        space = FeatureSpace([make_dim(lo=0, hi=10)], bucket_count=5)
        rng = np.random.default_rng(1234)
        draws = [space.sample_in_buckets([3], rng)[0] for _ in range(4000)]
        assert abs(float(np.mean(draws)) - 7.0) < 0.05
        assert min(draws) >= 6.0
        assert max(draws) < 8.0


class TestUnitCube:
    def test_length_checked(self):
        space = FeatureSpace([Dimension("x", 0.0, 1.0), Dimension("y", 0.0, 1.0)])
        with pytest.raises(DomainError):
            space.buckets_of([0.5])


class TestSampleConstruction:
    def test_make_sample_consistent(self):
        space = FeatureSpace(
            [Dimension("x", 0, 10), Dimension("y", -5, 5)], bucket_count=10
        )
        s = space.make_sample([6.2, 0.0])
        assert s.values == (6.2, 0.0)
        assert s.buckets == (6, 5)
        assert space.buckets_of(s.values) == s.buckets
