import hashlib
from fractions import Fraction

import pytest

from rtrees import (
    EdgePoint,
    SkeletonError,
    TreeSkeleton,
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
)
from conftest import random_corpus, rng_for, tree_grid
from rtrees.generators import random_point, rb_extend, segment, tripod as make_tripod
from rtrees.geometry import _span_top
from rtrees.skeleton import _at_height, _rooted, edge_key, normalize_point


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
    assert sub.vertex_cover == set(tripod.nodes())
    assert sub.edge_cover == {(u, v): ((0, length),) for u, v, length in tripod.edges()}


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
    assert sum(hi - lo for ivals in sub.edge_cover.values() for lo, hi in ivals) == 2

    just_p = spanned_subtree(tripod, [P])
    assert just_p.is_single_point()

    whole = spanned_subtree(tripod, [A, B])
    assert all(whole.covers(x) for x in tree_grid(tripod, 4))


def test_span_of_a_point_off_the_basepoint_component():
    tree = TreeSkeleton("p", [("p", "a", 1), ("z", "w", 1)])
    for adjoin in (True, False):
        with pytest.raises(SkeletonError, match="disconnected"):
            spanned_subtree(tree, [Vertex("z")], adjoin_basepoint=adjoin)


def _span_pin_text():
    """Generators and coverage of spans, with and without the basepoint,
    over a seeded corpus."""
    lines = []
    for k, tree in enumerate(random_corpus("span-pin", 40, max_nodes=9)):
        rng = rng_for(("span-pin", k))
        grid = tree_grid(tree, 4)
        for trial in range(12):
            gens = [
                rng.choice(grid) if rng.random() < 0.5 else random_point(rng, tree)
                for _ in range(trial % 4 + 1)
            ]
            for adjoin in (True, False):
                sub = spanned_subtree(tree, gens, adjoin_basepoint=adjoin)
                lines.append(
                    f"{k} {adjoin} {sub.generators!r} {sorted(sub.vertex_cover)!r} "
                    f"{sorted(sub.edge_cover.items())!r}"
                )
    return "\n".join(lines)


# sha256 of _span_pin_text(), recorded while spans were still cut out of a
# materialized copy of the tree
SPAN_PIN_SHA256 = "4f6b6853bc24da365003907e701a6007e3a65f44d1ac5b7d29f144e6d5ee56a4"


def test_span_coverage_unchanged():
    got = hashlib.sha256(_span_pin_text().encode()).hexdigest()
    assert got == SPAN_PIN_SHA256


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


def reference_covers(sub, a):
    """Membership as it read a covered edge as a tuple of intervals."""
    a = normalize_point(sub.ambient, a)
    if isinstance(a, Vertex):
        return a.node in sub.vertex_cover
    return any(lo <= a.offset <= hi for lo, hi in sub.edge_cover.get((a.u, a.v), ()))


def reference_project_to_subtree(tree, sub, a):
    """The projection as it read a covered edge as a tuple of intervals:
    the highest covered point at height <= ``a``'s on the first covered edge
    up the arc, tracked in ``Fraction`` heights across every interval."""
    if sub.ambient is not tree and sub.ambient != tree:
        raise SkeletonError("subtree belongs to a different ambient skeleton")
    a = normalize_point(tree, a)
    if reference_covers(sub, a):
        return a, Fraction(0)
    parent, num, _, den = tree._root_data()
    node, h, hd = _rooted(parent, num, den, a)
    h_a = Fraction(h, hd)
    while parent[node] is not None:
        up = parent[node]
        key = edge_key(up, node)
        cover = sub.edge_cover.get(key)
        if cover:
            at, low, high = Fraction(h, hd), Fraction(num[up], den), Fraction(num[node], den)
            best = None
            for lo, hi in cover:
                if key[0] == up:
                    lo, hi = low + lo, low + hi
                else:
                    lo, hi = high - hi, high - lo
                if lo <= at and (best is None or min(hi, at) > best):
                    best = min(hi, at)
            if best is not None:
                return _at_height(tree, node, best.numerator, best.denominator), h_a - best
        if up in sub.vertex_cover:
            return Vertex(up), h_a - Fraction(num[up], den)
        node, h, hd = up, num[up], den
    pts, t, big = _span_top(tree, sub.generators)
    top = _at_height(tree, pts[0][0], t, big)
    return top, distance(tree, a, top)


def projection_cases():
    """Seeded ``(tree, span, probes)`` cases: spans of grid and random
    points (edge points among them), with and without the basepoint, on
    random trees and on richly branching extensions of a tripod."""
    trees = [("random", t) for t in random_corpus("proj-ref", 40, max_nodes=9)]
    trees += [("rb", rb_extend(make_tripod(1, 1, 1), 2, k)) for k in range(6)]
    for k, (kind, tree) in enumerate(trees):
        rng = rng_for(("proj-ref", k))
        grid = tree_grid(tree, 4 if kind == "random" else 2)
        probes = grid + [random_point(rng, tree) for _ in range(8)]
        for trial in range(6):
            gens = [
                rng.choice(grid) if rng.random() < 0.5 else random_point(rng, tree)
                for _ in range(trial % 4 + 1)
            ]
            for adjoin in (True, False):
                yield tree, spanned_subtree(tree, gens, adjoin_basepoint=adjoin), probes


def test_membership_and_projection_match_interval_scan_reference():
    probes = no_basepoint = 0
    for tree, sub, points in projection_cases():
        no_basepoint += not sub.covers(Vertex(tree.basepoint))
        for a in points:
            assert sub.covers(a) == reference_covers(sub, a)
            got = project_to_subtree(tree, sub, a)
            assert got == reference_project_to_subtree(tree, sub, a)
            assert got[0] == normalize_point(tree, got[0])
            probes += 1
    assert probes > 15000 and no_basepoint > 150
    # a point on another component, and a subtree of another tree
    apart = TreeSkeleton("p", [("p", "a", 2), ("z", "w", 1)])
    sub = spanned_subtree(apart, [EdgePoint("p", "a", Fraction(1, 2))], adjoin_basepoint=False)
    for a in (Vertex("z"), EdgePoint("w", "z", Fraction(1, 3))):
        for project in (project_to_subtree, reference_project_to_subtree):
            with pytest.raises(SkeletonError, match="^distance query across disconnected components$"):
                project(apart, sub, a)
    for project in (project_to_subtree, reference_project_to_subtree):
        with pytest.raises(SkeletonError, match="different ambient skeleton"):
            project(segment(2), sub, P)


def test_spanned_subtree_covers_each_edge_with_one_interval():
    # ``covers`` and ``project_to_subtree`` read exactly one interval per edge
    spans = 0
    for tree, sub, _ in projection_cases():
        spans += 1
        for (u, v), cover in sub.edge_cover.items():
            assert u < v and tree.has_edge(u, v)
            ((lo, hi),) = cover
            assert 0 <= lo <= hi <= tree.edge_length(u, v)
    assert spans > 500


def test_spanning_nothing_without_the_basepoint_is_refused():
    tree = make_tripod(1, 1, 1)
    with pytest.raises(ValueError, match="^cannot span the empty set$"):
        spanned_subtree(tree, [], adjoin_basepoint=False)
    assert spanned_subtree(tree, []).vertex_cover == {"p"}
