"""Tests for the priority DAG and its induced dominance order.

The vectorized dominance check is validated against a direct loop
translation of the defining formula, and the maximal-set maintenance is
validated against brute-force maximal elements over everything offered.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falsify import rulebook as rb
from falsify.errors import CycleError, DomainError
from falsify.rulebook import Dominance


# ---------------------------------------------------------------- oracles


def closure_oracle(n, edges):
    reach = [[False] * n for _ in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def dominates_oracle(reach, a, b):
    """Direct loop form: every regression in a is excused upstream."""
    n = len(a)
    for i in range(n):
        if b[i] < a[i]:
            if not any(reach[j][i] and a[j] < b[j] for j in range(n)):
                return False
    return True


def maximal_oracle(book, offered):
    """All offered vectors not strictly dominated by another offered one."""
    uniq = list(dict.fromkeys(offered))
    return {
        x
        for x in uniq
        if not any(book.bits_strictly_dominates(y, x) for y in uniq if y != x)
    }


@st.composite
def random_dag(draw, max_n=6):
    """DAG via a random topological order, so acyclicity is free."""
    n = draw(st.integers(2, max_n))
    perm = draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = [(perm[a], perm[b]) for a, b in picks]
    return n, edges


# ---------------------------------------------------------------- construction


class TestBuild:
    def test_rejects_cycle_with_path(self):
        with pytest.raises(CycleError) as exc:
            rb.build(3, [(0, 1), (1, 2), (2, 0)])
        msg = str(exc.value)
        assert "cycle" in msg
        assert "->" in msg

    def test_rejects_self_loop(self):
        with pytest.raises(CycleError):
            rb.build(2, [(1, 1)])

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            rb.build(2, [(0, 2)])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            rb.build(0, [])

    def test_reach_is_readonly(self):
        book = rb.total_order(3)
        with pytest.raises(ValueError):
            book.reach[0, 0] = True

    @given(random_dag())
    def test_closure_matches_oracle(self, dag):
        n, edges = dag
        book = rb.build(n, edges)
        expect = closure_oracle(n, edges)
        for i in range(n):
            for j in range(n):
                assert book.precedes(i, j) == expect[i][j]

    def test_total_order_chain(self):
        book = rb.total_order(4)
        for i in range(4):
            for j in range(4):
                assert book.precedes(i, j) == (i < j)

    def test_disconnected_has_no_precedence(self):
        book = rb.disconnected(4)
        assert not book.reach.any()


# ---------------------------------------------------------------- precedence


class TestPrecedes:
    def test_transitive_through_two_hops(self):
        book = rb.build(6, [(0, 2), (0, 1), (1, 3), (2, 3), (4, 2), (2, 5)])
        assert book.precedes(0, 3)  # via 1 or 2
        assert book.precedes(4, 5)  # via 2
        assert book.precedes(4, 3)
        assert not book.precedes(3, 0)
        assert not book.precedes(5, 4)
        assert not book.precedes(0, 4)
        assert not book.precedes(1, 2)

    def test_irreflexive_on_dag(self):
        book = rb.build(6, [(0, 2), (0, 1), (1, 3), (2, 3), (4, 2), (2, 5)])
        for i in range(6):
            assert not book.precedes(i, i)

    def test_index_checked(self):
        book = rb.total_order(3)
        with pytest.raises(DomainError):
            book.precedes(0, 3)


# ---------------------------------------------------------------- dominance


class TestDominates:
    def test_worked_example(self):
        # One regressed metric (index 2) excused by a strictly better
        # higher-priority metric (index 4, which outranks 2).
        book = rb.build(6, [(0, 2), (0, 1), (1, 3), (2, 3), (4, 2), (2, 5)])
        a = [1, 1, 2, 1, 0, 1]
        b = [1, 1, 1, 1, 1, 1]
        assert book.dominates(a, b)
        assert not book.dominates(b, a)
        assert book.compare(a, b) is Dominance.LEFT_DOMINATES
        assert book.compare(b, a) is Dominance.RIGHT_DOMINATES
        assert book.strictly_dominates(a, b)
        assert not book.strictly_dominates(b, a)

    def test_unexcused_regression_blocks(self):
        book = rb.build(6, [(0, 2), (0, 1), (1, 3), (2, 3), (4, 2), (2, 5)])
        # Worse on metric 4; nothing outranks 4, so no excuse exists.
        assert not book.dominates([1, 1, 1, 1, 2, 1], [1, 1, 1, 1, 1, 1])

    def test_reflexive(self):
        book = rb.total_order(3)
        assert book.compare([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) is Dominance.EQUIVALENT

    def test_incomparable(self):
        book = rb.disconnected(2)
        assert book.compare([0.0, 1.0], [1.0, 0.0]) is Dominance.INCOMPARABLE

    def test_shape_checked(self):
        book = rb.total_order(3)
        with pytest.raises(DomainError):
            book.dominates([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(
        random_dag(),
        st.data(),
    )
    @settings(max_examples=300)
    def test_matches_loop_oracle(self, dag, data):
        n, edges = dag
        book = rb.build(n, edges)
        reach = closure_oracle(n, edges)
        vals = st.integers(0, 2)
        a = data.draw(st.lists(vals, min_size=n, max_size=n))
        b = data.draw(st.lists(vals, min_size=n, max_size=n))
        assert book.dominates(a, b) == dominates_oracle(reach, a, b)

    @given(st.integers(2, 5), st.data())
    def test_disconnected_is_componentwise(self, n, data):
        # With no precedence, nothing can be excused: dominance collapses
        # to "no coordinate got worse".
        book = rb.disconnected(n)
        vals = st.integers(0, 2)
        a = data.draw(st.lists(vals, min_size=n, max_size=n))
        b = data.draw(st.lists(vals, min_size=n, max_size=n))
        assert book.dominates(a, b) == all(x <= y for x, y in zip(a, b))

    @given(st.integers(2, 5), st.data())
    def test_total_order_is_lexicographic(self, n, data):
        book = rb.total_order(n)
        vals = st.integers(0, 2)
        a = tuple(data.draw(st.lists(vals, min_size=n, max_size=n)))
        b = tuple(data.draw(st.lists(vals, min_size=n, max_size=n)))
        if a == b:
            assert book.compare(a, b) is Dominance.EQUIVALENT
        elif a < b:  # first differing coordinate is smaller
            assert book.compare(a, b) is Dominance.LEFT_DOMINATES
        else:
            assert book.compare(a, b) is Dominance.RIGHT_DOMINATES


# ---------------------------------------------------------------- maximal sets


class TestInsertMaximal:
    def test_chain_prefix_eviction(self):
        # Under a 5-metric chain, a longer falsified prefix supersedes a
        # shorter one, and anything missing the top metric is dominated.
        book = rb.total_order(5)
        s, acc = book.insert_maximal([], (True, False, False, False, False))
        assert acc and s == [(True, False, False, False, False)]
        s, acc = book.insert_maximal(s, (True, True, False, False, False))
        assert acc and s == [(True, True, False, False, False)]
        s, acc = book.insert_maximal(s, (True, False, False, False, False))
        assert not acc and s == [(True, True, False, False, False)]
        s, acc = book.insert_maximal(s, (False, True, True, True, True))
        assert not acc and s == [(True, True, False, False, False)]
        s, acc = book.insert_maximal(s, (True, True, True, True, True))
        assert acc and s == [(True, True, True, True, True)]

    def test_disconnected_keeps_incomparable(self):
        book = rb.disconnected(2)
        s, acc = book.insert_maximal([], (True, False))
        assert acc
        s, acc = book.insert_maximal(s, (False, True))
        assert acc
        assert sorted(s) == [(False, True), (True, False)]

    def test_reoffer_accepted_without_duplicate(self):
        book = rb.disconnected(2)
        s, _ = book.insert_maximal([], (True, False))
        s, acc = book.insert_maximal(s, (True, False))
        assert acc
        assert s == [(True, False)]

    def test_length_checked(self):
        book = rb.total_order(3)
        with pytest.raises(DomainError):
            book.insert_maximal([(True, False)], (True, False, True))

    @given(random_dag(max_n=5), st.data())
    @settings(max_examples=150)
    def test_matches_brute_force_maximal(self, dag, data):
        n, edges = dag
        book = rb.build(n, edges)
        offered = data.draw(
            st.lists(
                st.tuples(*[st.booleans()] * n),
                min_size=1,
                max_size=12,
            )
        )
        s = []
        for bits in offered:
            s, _ = book.insert_maximal(s, bits)
        assert set(s) == maximal_oracle(book, offered)

    @given(random_dag(max_n=5), st.data())
    @settings(max_examples=100)
    def test_result_is_an_antichain(self, dag, data):
        n, edges = dag
        book = rb.build(n, edges)
        offered = data.draw(
            st.lists(st.tuples(*[st.booleans()] * n), min_size=1, max_size=10)
        )
        s = []
        for bits in offered:
            s, _ = book.insert_maximal(s, bits)
        for x in s:
            for y in s:
                if x != y:
                    assert not book.bits_strictly_dominates(x, y)


def test_bits_embedding():
    v = rb.bits_to_objective((True, False, True))
    assert v.tolist() == [0.0, 1.0, 0.0]
