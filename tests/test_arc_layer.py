"""The rooted arc layer: distances, points on arcs, medians and projections
against independent oracles, plus a pin of their outputs."""

import hashlib
from fractions import Fraction

import pytest

from rtrees import (
    EdgePoint,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    distance,
    is_between,
    median,
    normalize_point,
    point_on_edge,
    point_on_segment,
    project_to_subtree,
    random_point,
    random_tree,
    spanned_subtree,
)
from conftest import fw_distance, random_corpus, rng_for, tree_grid

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

R = Fraction(2)
CHECKS = settings(max_examples=60, deadline=None, derandomize=True)


def root_path(tree, node):
    """Nodes from ``node`` up to the basepoint, by a breadth-first search
    that shares no code with the library's rooted data."""
    parent = {tree.basepoint: None}
    queue = [tree.basepoint]
    for cur in queue:
        for nbr in tree.neighbors(cur):
            if nbr not in parent:
                parent[nbr] = cur
                queue.append(nbr)
    path = [node]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def draw_pair(rng, tree):
    """Two points of ``tree``: unrelated, on one edge, or one an ancestor
    of the other (a point of the other's arc to the basepoint)."""
    kind = rng.choice(["any", "same_edge", "ancestor"])
    edges = tree.edges()
    if kind == "same_edge" and edges:
        u, v, length = rng.choice(edges)
        a, b = (point_on_edge(tree, u, v, length * Fraction(rng.randint(0, 8), 8)) for _ in "ab")
        return a, b
    if kind == "ancestor":
        path = root_path(tree, rng.choice(tree.nodes()))
        i = rng.randrange(len(path))
        up = path[i + 1] if i + 1 < len(path) else path[i]
        frac = Fraction(rng.randint(0, 4), 4)
        anc = Vertex(up) if up == path[i] else point_on_edge(
            tree, path[i], up, tree.edge_length(path[i], up) * frac
        )
        pair = [Vertex(path[0]), anc]
        rng.shuffle(pair)
        return tuple(pair)
    return random_point(rng, tree), random_point(rng, tree)


def random_trees():
    return st.builds(
        lambda rng: (rng, random_tree(rng, max_nodes=rng.randint(2, 8), radius=R)),
        st.randoms(use_true_random=False),
    )


@CHECKS
@given(random_trees())
def test_distance_matches_floyd_warshall(drawn):
    rng, tree = drawn
    for _ in range(4):
        a, b = draw_pair(rng, tree)
        assert distance(tree, a, b) == fw_distance(tree, a, b)


@CHECKS
@given(random_trees())
def test_point_on_segment_lies_on_the_arc(drawn):
    rng, tree = drawn
    for _ in range(4):
        a, b = draw_pair(rng, tree)
        total = distance(tree, a, b)
        t = total * Fraction(rng.randint(0, 6), 6)
        z = point_on_segment(tree, a, b, t)
        assert z == normalize_point(tree, z)
        assert fw_distance(tree, a, z) == t
        assert fw_distance(tree, z, b) == total - t


@CHECKS
@given(random_trees())
def test_median_lies_on_all_three_arcs(drawn):
    rng, tree = drawn
    for _ in range(3):
        a, b = draw_pair(rng, tree)
        c = random_point(rng, tree)
        m = median(tree, a, b, c)
        for x, y in ((a, b), (a, c), (b, c)):
            assert is_between(tree, x, m, y)


@CHECKS
@given(random_trees(), st.booleans())
def test_projection_factors_every_covered_point(drawn, adjoin_basepoint):
    rng, tree = drawn
    gens = [random_point(rng, tree) for _ in range(rng.randint(1, 3))]
    sub = spanned_subtree(tree, gens, adjoin_basepoint=adjoin_basepoint)
    covered = [x for x in tree_grid(tree, 4) + gens if sub.covers(x)]
    assert all(sub.covers(g) for g in gens)
    for _ in range(3):
        a = random_point(rng, tree)
        e, d = project_to_subtree(tree, sub, a)
        assert sub.covers(e)
        assert distance(tree, a, e) == d
        for x in covered:
            assert distance(tree, a, x) == d + distance(tree, e, x)


@CHECKS
@given(random_trees())
def test_cyclic_skeleton_uses_the_basepoint_spanning_tree(drawn):
    # one extra edge closes a cycle; the library measures along the
    # spanning tree of its basepoint search and refuses points on the
    # one edge that tree leaves out
    rng, tree = drawn
    nodes = tree.nodes()
    pairs = [(x, y) for x in nodes for y in nodes if x < y and not tree.has_edge(x, y)]
    if not pairs:
        return
    x, y = rng.choice(pairs)
    cyclic = TreeSkeleton(
        tree.basepoint, list(tree.edges()) + [(x, y, Fraction(rng.randint(1, 8), 4))]
    )
    p = Vertex(cyclic.basepoint)
    unused = []
    for u, v, length in cyclic.edges():
        mid = point_on_edge(cyclic, u, v, length / 2)
        try:
            distance(cyclic, p, mid)
        except SkeletonError:
            unused.append((u, v))
            with pytest.raises(SkeletonError):
                point_on_segment(cyclic, mid, p, 0)
    assert len(unused) == 1
    spanning = TreeSkeleton(
        cyclic.basepoint, [e for e in cyclic.edges() if e[:2] not in unused]
    )
    for _ in range(4):
        a, b = draw_pair(rng, spanning)
        assert distance(cyclic, a, b) == fw_distance(spanning, a, b)
        total = distance(cyclic, a, b)
        z = point_on_segment(cyclic, a, b, total / 3)
        assert fw_distance(spanning, a, z) == total / 3


def _arc_pin_text():
    """Distances, points on arcs and projections (with and without the
    basepoint) over a seeded corpus."""
    lines = []
    for k, tree in enumerate(random_corpus("arc-pin", 10, max_nodes=7)):
        rng = rng_for(("arc-pin", k))
        pts = tree_grid(tree, 3)
        for i, a in enumerate(pts):
            for b in pts[i:]:
                total = distance(tree, a, b)
                lines.append(f"{k} d {a!r} {b!r} {total}")
                for frac in (Fraction(1, 3), Fraction(1, 2)):
                    lines.append(f"{k} s {frac} {point_on_segment(tree, a, b, frac * total)!r}")
        for trial in range(4):
            gens = [random_point(rng, tree) for _ in range(trial % 3 + 1)]
            for adjoin in (True, False):
                sub = spanned_subtree(tree, gens, adjoin_basepoint=adjoin)
                if sub.is_single_point() and isinstance(sub.generators[0], EdgePoint):
                    continue  # raised before the span of one edge point was fixed
                for a in pts:
                    lines.append(f"{k} p {adjoin} {gens!r} {a!r} {project_to_subtree(tree, sub, a)!r}")
    return "\n".join(lines)


# sha256 of _arc_pin_text(), recorded before distances and arc points were
# computed from (node, height) pairs
ARC_PIN_SHA256 = "6fe6435f4d163a846831a7d165be6f66241bb1dfebc1fe38e54a05c38af9f43f"


def test_arc_outputs_unchanged():
    got = hashlib.sha256(_arc_pin_text().encode()).hexdigest()
    assert got == ARC_PIN_SHA256
