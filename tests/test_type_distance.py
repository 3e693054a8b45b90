"""The exact n-type distance against the exhaustive certified search."""

import random
from fractions import Fraction

import pytest

import rtrees.typespace as typespace
from rtrees import (
    NTypeDescriptor,
    TreeSkeleton,
    Vertex,
    random_point,
    random_tree,
    realize_type,
    spanned_subtree,
    type_distance_exact,
    type_distance_search,
    type_of,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

R = Fraction(2)
MESH = R / 16
CHECKS = settings(max_examples=60, deadline=None, derandomize=True)


def full_search(q1, q2):
    """The search without its early stop: every configuration is tried."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(typespace, "_exact_distance", lambda _q1, _q2: None)
        return type_distance_search(q1, q2, MESH)


def assert_agrees(q1, q2):
    full = full_search(q1, q2)
    fast = type_distance_search(q1, q2, MESH)
    exact = type_distance_exact(q1, q2)
    assert full.lower <= exact <= full.upper
    assert (fast.lower, fast.upper, fast.truncated) == (full.lower, full.upper, False)


@CHECKS
@given(st.randoms(use_true_random=False), st.integers(0, 2), st.integers(1, 3))
def test_exact_inside_full_search_same_tree(rng, num_params, n):
    # two tuples of one random tree over 0-2 random parameters
    tree = random_tree(rng, max_nodes=rng.randint(2, 6), radius=R)
    A = [random_point(rng, tree) for _ in range(num_params)]
    q1 = type_of(tree, A, [random_point(rng, tree) for _ in range(n)], R)
    q2 = type_of(tree, A, [random_point(rng, tree) for _ in range(n)], R)
    assert_agrees(q1, q2)


@CHECKS
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_exact_inside_full_search_empty_context(rng, n):
    # the shapes of two tuples from different random trees, over the empty
    # context, so the two class trees need not fit together
    ctx = spanned_subtree(TreeSkeleton("p", (), extra_nodes=["p"]), [])

    def draw():
        tree = random_tree(rng, max_nodes=rng.randint(2, 6), radius=R)
        q = type_of(tree, [], [random_point(rng, tree) for _ in range(n)], R)
        return NTypeDescriptor(ctx, R, (Vertex("p"),) * n, q.offsets, q.pairwise)

    assert_agrees(draw(), draw())


@pytest.mark.parametrize("n", [2, 3])
def test_search_checks_each_descriptor_once(n):
    # q1 and q2 each realized once at entry, which is their check; the
    # search grows q1's realization, and the marginal bound and the early
    # stop reuse those checks
    rng = random.Random(n)
    tree = random_tree(rng, min_nodes=4, max_nodes=6, radius=R)
    q1, q2 = (type_of(tree, [], [random_point(rng, tree) for _ in range(n)], R) for _ in "12")
    assert q1.offsets != q2.offsets
    calls = []
    realization = typespace._realization

    def counting(q):
        calls.append(q)
        return realization(q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(typespace, "_realization", counting)
        got = type_distance_search(q1, q2, MESH)
        assert [q is q1 for q in calls] == [True, False]
        calls.clear()
        realized = realize_type(tree, q1)
        assert [q is q1 for q in calls] == [True]
    assert got == type_distance_search(q1, q2, MESH)
    assert realized == realize_type(tree, q1)
