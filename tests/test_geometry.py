from fractions import Fraction

import pytest

from rtrees import (
    Vertex,
    dist_to_center_ball,
    distance,
    endpoints,
    gromov_product,
    interpolate,
    is_between,
    median,
    piecewise_segment_check,
    point_on_edge,
    project_to_subtree,
    spanned_subtree,
    tree_to_matrix,
)
from conftest import random_corpus, rng_for, tree_grid
from rtrees.generators import random_point, segment


P, Y, A, B = Vertex("p"), Vertex("y"), Vertex("a"), Vertex("b")


def brute_median(tree, a, b, c, parts=8):
    """Independent oracle: minimize the max of the three pairwise Gromov
    products over a dense grid of probe points."""
    best = None
    for x in tree_grid(tree, parts):
        val = max(
            gromov_product(tree, a, b, x),
            gromov_product(tree, a, c, x),
            gromov_product(tree, b, c, x),
        )
        if best is None or val < best[0]:
            best = (val, x)
    return best


def brute_projection(tree, sub, a, parts=16):
    best = None
    for x in tree_grid(tree, parts):
        if not sub.covers(x):
            continue
        d = distance(tree, a, x)
        if best is None or d < best:
            best = d
    return best


def test_gromov_examples(tripod):
    assert gromov_product(tripod, A, B, P) == 1
    assert gromov_product(tripod, A, B, A) == 0
    assert gromov_product(tripod, A, B, P) == gromov_product(tripod, B, A, P)


def test_median_examples(tripod):
    assert median(tripod, P, A, B) == Y
    assert median(tripod, A, A, B) == A
    assert median(tripod, P, Y, A) == Y
    # brute-force oracle confirms the grid minimum sits at y with value 0
    val, arg = brute_median(tripod, P, A, B)
    assert val == 0 and arg == Y


def test_median_permutation_invariant():
    import itertools

    for tree in random_corpus("median", 6, max_nodes=6):
        rng = rng_for("medianpts")
        pts = [random_point(rng, tree) for _ in range(3)]
        images = {median(tree, *perm) for perm in itertools.permutations(pts)}
        assert len(images) == 1


def test_median_distance_formula():
    # d(x, median(a,b,c)) equals the max of the three Gromov products at x
    for tree in random_corpus("median-f", 8, max_nodes=7):
        rng = rng_for("median-f-pts")
        a, b, c = (random_point(rng, tree) for _ in range(3))
        m = median(tree, a, b, c)
        for x in [Vertex(n) for n in tree.nodes()]:
            want = max(
                gromov_product(tree, a, b, x),
                gromov_product(tree, a, c, x),
                gromov_product(tree, b, c, x),
            )
            assert distance(tree, x, m) == want


def test_branch_identity_via_median():
    # d(a,b) + d(b,c) = d(a,c) + 2 dist(b, [a,c]), where the distance to the
    # segment is realized by the median point
    for tree in random_corpus("branch", 8, max_nodes=7):
        rng = rng_for("branchpts")
        for _ in range(6):
            a, b, c = (random_point(rng, tree) for _ in range(3))
            lhs = distance(tree, a, b) + distance(tree, b, c)
            seg_dist = distance(tree, b, median(tree, a, c, b))
            assert lhs == distance(tree, a, c) + 2 * seg_dist
            assert seg_dist == gromov_product(tree, a, c, b)


def test_four_point_gromov_inequality():
    for tree in random_corpus("fourpt", 6, max_nodes=6):
        pts = tree_grid(tree, 2)
        rng = rng_for("fourpt-quads")
        for _ in range(40):
            x, y, z, w = (pts[rng.randrange(len(pts))] for _ in range(4))
            assert min(
                gromov_product(tree, x, z, w), gromov_product(tree, y, z, w)
            ) <= gromov_product(tree, x, y, w)


def test_is_between_examples(tripod):
    assert is_between(tripod, P, Y, A)
    assert not is_between(tripod, A, P, B)
    assert is_between(tripod, A, A, B)


def test_piecewise_segment(tripod):
    assert piecewise_segment_check(tripod, [P, Y, A])
    assert not piecewise_segment_check(tripod, [A, P, B])
    assert piecewise_segment_check(tripod, [A, A])
    with pytest.raises(ValueError):
        piecewise_segment_check(tripod, [A])


def test_interpolate_examples(tripod):
    assert interpolate(tripod, A, B, Fraction(1, 2)) == Y
    assert interpolate(tripod, A, B, 0) == A
    assert interpolate(tripod, A, B, 1) == B
    z = interpolate(tripod, P, A, Fraction(3, 4))
    assert distance(tripod, P, z) == Fraction(3, 2)


def test_dist_to_center_ball(tripod):
    assert dist_to_center_ball(tripod, A, 1) == 1
    assert dist_to_center_ball(tripod, point_on_edge(tripod, "p", "y", Fraction(1, 2)), 1) == 0
    for x in tree_grid(tripod, 3):
        assert dist_to_center_ball(tripod, x, 2) == 0
    # formula agrees with brute minimization over ball points
    s = Fraction(1)
    ball = spanned_subtree(tripod, [])  # only used for ambient reference
    for x in tree_grid(tripod, 4):
        want = min(
            distance(tripod, x, z)
            for z in tree_grid(tripod, 8)
            if distance(tripod, z, P) <= s
        )
        assert dist_to_center_ball(tripod, x, s) == want


def test_endpoints(tripod):
    assert set(endpoints(tripod)) == {P, A, B}
    seg = segment(3)
    assert set(endpoints(seg)) == {Vertex("p"), Vertex("q")}
    # endpoints span the whole tree
    sub = spanned_subtree(tripod, endpoints(tripod))
    assert tree_to_matrix(
        sub.realized, [Vertex(n) for n in sub.realized.nodes()]
    ) == tree_to_matrix(tripod, [Vertex(n) for n in tripod.nodes()])


def test_endpoints_minimal_spanning():
    for tree in random_corpus("minspan", 6, max_nodes=7):
        ends = endpoints(tree)
        full = spanned_subtree(tree, ends, adjoin_basepoint=False)
        assert all(full.covers(Vertex(n)) for n in tree.nodes())
        for drop in range(len(ends)):
            subset = ends[:drop] + ends[drop + 1:]
            if not subset:
                continue
            sub = spanned_subtree(tree, subset, adjoin_basepoint=False)
            assert not sub.covers(ends[drop])


def test_spanned_subtree_examples(tripod):
    sub = spanned_subtree(tripod, [A])
    assert sub.covers(Y) and sub.covers(point_on_edge(tripod, "p", "y", Fraction(1, 2)))
    assert not sub.covers(B)
    assert sub.realized.total_length() == 2

    just_p = spanned_subtree(tripod, [P])
    assert just_p.is_single_point()

    whole = spanned_subtree(tripod, [A, B])
    assert all(whole.covers(x) for x in tree_grid(tripod, 4))


def test_projection_examples(tripod):
    sub = spanned_subtree(tripod, [Y])  # the segment p-y
    e, d = project_to_subtree(tripod, sub, A)
    assert (e, d) == (Y, 1)
    e, d = project_to_subtree(tripod, sub, point_on_edge(tripod, "p", "y", Fraction(1, 4)))
    assert d == 0
    only_p = spanned_subtree(tripod, [P])
    assert project_to_subtree(tripod, only_p, A) == (P, 2)


def test_span_of_one_edge_point_without_basepoint():
    t = segment(2)
    g = point_on_edge(t, "p", "q", Fraction(1, 2))
    sub = spanned_subtree(t, [g], adjoin_basepoint=False)
    assert sub.is_single_point()
    assert sub.covers(g)
    assert not sub.covers(point_on_edge(t, "p", "q", Fraction(1)))
    assert project_to_subtree(t, sub, Vertex("q")) == (g, Fraction(3, 2))
    assert project_to_subtree(t, sub, P) == (g, Fraction(1, 2))


def test_projection_against_brute_force():
    for tree in random_corpus("proj", 6, max_nodes=6):
        rng = rng_for("projpts")
        gens = [random_point(rng, tree) for _ in range(2)]
        sub = spanned_subtree(tree, gens)
        for _ in range(5):
            a = random_point(rng, tree)
            e, d = project_to_subtree(tree, sub, a)
            assert sub.covers(e)
            assert distance(tree, a, e) == d
            brute = brute_projection(tree, sub, a)
            assert d <= brute  # grid can only overshoot
            # factorization: every subtree point routes through e
            for b in tree_grid(tree, 3):
                if sub.covers(b):
                    assert distance(tree, a, b) == d + distance(tree, e, b)
