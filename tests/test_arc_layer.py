"""The rooted arc layer: distances, points on arcs, medians and projections
against independent oracles, plus a pin of their outputs."""

import hashlib
import sys
import threading
from fractions import Fraction

import pytest

import rtrees.skeleton as skeleton
from rtrees import (
    EdgePoint,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    distance,
    gromov_product,
    is_between,
    median,
    normalize_point,
    point_on_edge,
    point_on_segment,
    project_to_subtree,
    random_point,
    random_tree,
    rb_extend,
    segment,
    spanned_subtree,
    tripod,
    validate,
)
from conftest import fw_distance, random_corpus, rng_for, tree_grid

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

R = Fraction(2)
CHECKS = settings(max_examples=60, deadline=None, derandomize=True)


def bfs_parents(tree):
    """Each node's parent, by a breadth-first search from the basepoint
    that shares no code with the library's rooted data; parents come
    before their children."""
    parent = {tree.basepoint: None}
    queue = [tree.basepoint]
    for cur in queue:
        for nbr in tree.neighbors(cur):
            if nbr not in parent:
                parent[nbr] = cur
                queue.append(nbr)
    return parent


def root_path(tree, node):
    """Nodes from ``node`` up to the basepoint."""
    parent = bfs_parents(tree)
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
@given(random_trees(), st.booleans())
def test_span_is_the_union_of_generator_arcs(drawn, adjoin_basepoint):
    # x is in the span iff it lies on [g, h] for generators g, h (g = h
    # allowed), the basepoint counting as a generator when adjoined
    rng, tree = drawn
    grid = tree_grid(tree, 8)
    gens = [
        rng.choice(grid) if rng.random() < 0.5 else random_point(rng, tree)
        for _ in range(rng.randint(1, 4))
    ]
    sub = spanned_subtree(tree, gens, adjoin_basepoint=adjoin_basepoint)
    ends = gens + [Vertex(tree.basepoint)] * adjoin_basepoint
    for x in grid + gens:
        on_arc = any(is_between(tree, g, x, h) for g in ends for h in ends)
        assert sub.covers(x) == on_arc


@CHECKS
@given(random_trees())
def test_cyclic_skeleton_refuses_distances(drawn):
    # one extra edge closes a cycle: the skeleton is not a tree, so every
    # distance, arc point, span and reach table refuses it and names an edge
    rng, tree = drawn
    nodes = tree.nodes()
    pairs = [(x, y) for x in nodes for y in nodes if x < y and not tree.has_edge(x, y)]
    if not pairs:
        return
    x, y = rng.choice(pairs)
    cyclic = TreeSkeleton(
        tree.basepoint, list(tree.edges()) + [(x, y, Fraction(rng.randint(1, 8), 4))]
    )
    assert any(v.kind == "cycle" for v in validate(cyclic, R).violations)
    a, b = draw_pair(rng, tree)
    calls = [
        lambda: distance(cyclic, a, b),
        lambda: point_on_segment(cyclic, a, b, 0),
        lambda: cyclic.vertex_distance(x, y),
        lambda: cyclic.dist_to_basepoint(x),
        cyclic.directional_reach,
        lambda: spanned_subtree(cyclic, [a]),
    ]
    for call in calls:
        with pytest.raises(SkeletonError, match=r"edge \S+-\S+ closes a cycle"):
            call()


J = skeleton._JUMP_HEIGHT


def path_tree(height):
    return TreeSkeleton("n0", [(f"n{i}", f"n{i + 1}", 1) for i in range(height)])


def comb_tree(height):
    """A spine of ``height`` unit edges with a tooth of one to three edges
    of mixed lengths at every spine node."""
    edges = [(f"s{i}", f"s{i + 1}", 1) for i in range(height)]
    for i in range(height):
        tooth = [f"s{i}"] + [f"t{i}_{j}" for j in range(i % 3 + 1)]
        edges += [(a, b, Fraction(j + 1, 3)) for j, (a, b) in enumerate(zip(tooth, tooth[1:]))]
    return TreeSkeleton("s0", edges)


ANCESTOR_TREES = {
    "path J-1": lambda: path_tree(J - 1),
    "path J": lambda: path_tree(J),
    "path J+1": lambda: path_tree(J + 1),
    "path 2J": lambda: path_tree(2 * J),
    "path 300": lambda: path_tree(300),
    "comb 2J": lambda: comb_tree(2 * J),
    "rb_extend tripod 6": lambda: rb_extend(tripod(1, 1, 1), 2, 6),
    "rb_extend segment 6": lambda: rb_extend(segment(2), 2, 6),
}


def reference_common_ancestors(parent, x):
    """The common ancestor of ``x`` and each node, by a parent walk: a node
    on the root path of ``x`` is its own, any other takes its parent's."""
    on_path = set()
    while x is not None:
        on_path.add(x)
        x = parent[x]
    out = {}
    for y, up in parent.items():
        out[y] = y if y in on_path else out[up]
    return out


@pytest.mark.parametrize("name", ANCESTOR_TREES)
def test_common_ancestor_matches_a_parent_walk(name):
    # every node pair, on trees either side of the height at which the
    # jump pointers are built
    tree = ANCESTOR_TREES[name]()
    parent, _, anc, _ = tree._root_data()
    assert (anc[1] is None) == (max(anc[0].values()) <= J)
    ref = bfs_parents(tree)
    for x in ref:
        got = {y: skeleton._common_ancestor(parent, anc, x, y) for y in ref}
        assert got == reference_common_ancestors(ref, x), x


def test_tall_tree_arcs_match_floyd_warshall():
    # distances, Gromov products and medians where the walk climbs by
    # jumps, with edge points in either orientation; the branches part
    # deep down the spine, so both of the walk's loops run
    spine = [(f"s{i}", f"s{i + 1}", Fraction(i % 3 + 1, 2)) for i in range(J + 4)]
    branch = [(f"s{J - 3}" if i == 0 else f"b{i}", f"b{i + 1}", Fraction(i % 2 + 1, 3)) for i in range(5)]
    tree = TreeSkeleton("s0", spine + branch + [("s9", "c1", 1), ("c1", "c2", Fraction(1, 5))])
    assert tree._root_data()[2][1] is not None
    rng = rng_for("tall-arcs")
    deep = [EdgePoint(f"s{J + 3}", f"s{J + 4}", Fraction(1, 3)), EdgePoint("b5", "b4", Fraction(1, 4))]
    fw = {}

    def d(p, q):
        if (p, q) not in fw:
            fw[p, q] = fw[q, p] = fw_distance(tree, p, q)
        return fw[p, q]

    def flip(pt):
        if isinstance(pt, Vertex):
            return pt
        return EdgePoint(pt.v, pt.u, tree.edge_length(pt.u, pt.v) - pt.offset)

    for k in range(4):
        x, y, w = deep[k % 2], deep[1 - k % 2] if k < 2 else random_point(rng, tree), random_point(rng, tree)
        for a, b, c in ((x, y, w), (flip(y), flip(x), flip(w))):
            assert distance(tree, a, b) == d(a, b)
            assert gromov_product(tree, a, b, c) == (d(a, c) + d(b, c) - d(a, b)) / 2
            m = median(tree, a, b, c)
            for p, q in ((a, b), (a, c), (b, c)):
                assert d(p, m) + d(m, q) == d(p, q)


def test_tall_skeletons_off_a_tree_are_refused_as_before():
    edges = [(f"n{i}", f"n{i + 1}", 1) for i in range(2 * J)]
    cyclic = TreeSkeleton("n0", edges + [(f"n{2 * J}", "n3", 1)])
    assert cyclic._search()[2][1] is None
    with pytest.raises(SkeletonError, match="^edge n5-n4 closes a cycle: the skeleton is not a tree$"):
        distance(cyclic, Vertex("n1"), Vertex(f"n{2 * J}"))
    apart = TreeSkeleton("n0", edges, extra_nodes=["z"])
    assert apart._root_data()[2][1] is not None
    assert distance(apart, Vertex("n1"), Vertex(f"n{2 * J}")) == 2 * J - 1
    for call in (lambda: distance(apart, Vertex("n5"), Vertex("z")), lambda: apart.vertex_distance("z", "n5")):
        with pytest.raises(SkeletonError, match="^distance query across disconnected components$"):
            call()
    with pytest.raises(SkeletonError, match="^node 'z' not connected to the basepoint$"):
        apart.directional_reach()


EDGE_DENOMINATORS = (2, 3, 5, 7, 11, 13)
OFFSET_DENOMINATORS = (17, 19, 23)


def coprime_tree(rng):
    """A tree whose edge lengths have pairwise coprime denominators, one
    prime of EDGE_DENOMINATORS per edge, so the lcm of its root distances'
    denominators is a product of distinct primes."""
    size = rng.randint(2, len(EDGE_DENOMINATORS) + 1)
    dens = rng.sample(EDGE_DENOMINATORS, size - 1)
    edges = []
    for i, q in enumerate(dens, start=1):
        length = Fraction(q * rng.randint(0, 1) + rng.randint(1, q - 1), q)
        edges.append((f"n{rng.randrange(i)}", f"n{i}", length))
    return TreeSkeleton("n0", edges)


def coprime_point(rng, tree):
    """A vertex, or an edge point whose offset's denominator is one of
    OFFSET_DENOMINATORS, so it divides no root distance's denominator."""
    if rng.random() < 0.3:
        return Vertex(rng.choice(tree.nodes()))
    u, v, length = rng.choice(tree.edges())
    s = rng.choice(OFFSET_DENOMINATORS)
    j = rng.choice([j for j in range(1, int(length * s) + 1) if j % s])
    return point_on_edge(tree, u, v, Fraction(j, s))


@CHECKS
@given(st.randoms(use_true_random=False))
def test_mixed_denominators_match_floyd_warshall(rng):
    tree = coprime_tree(rng)
    for _ in range(4):
        a, b = coprime_point(rng, tree), coprime_point(rng, tree)
        total = distance(tree, a, b)
        assert total == fw_distance(tree, a, b)
        for t in (total * Fraction(rng.randint(0, 5), 5), min(total, Fraction(rng.randint(0, 40), 29))):
            z = point_on_segment(tree, a, b, t)
            assert z == normalize_point(tree, z)
            assert fw_distance(tree, a, z) == t
            assert fw_distance(tree, z, b) == total - t


def test_first_calls_from_threads_agree():
    # the rooted data and the node and edge tuples are cached on first use;
    # four threads racing to fill them on a fresh skeleton see one value
    def same_tree():
        return random_tree(rng_for("threads-tree"), max_nodes=8, radius=R)

    rng = rng_for("threads")
    reference, fresh = same_tree(), same_tree()
    pairs = [(random_point(rng, reference), random_point(rng, reference)) for _ in range(40)]

    def work(tree):
        return (
            [distance(tree, a, b) for a, b in pairs],
            [median(tree, a, b, Vertex(tree.basepoint)) for a, b in pairs],
            tree.edges(),
            tree.nodes(),
        )

    barrier = threading.Barrier(4)
    results = [None] * 4

    def run(i):
        barrier.wait(timeout=60)
        results[i] = work(fresh)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(th.is_alive() for th in threads)
    want = work(reference)
    for got in results:
        assert got[:2] == want[:2]
        assert got[2] is results[0][2] and got[3] is results[0][3]
    assert fresh.edges() is fresh.edges() and fresh.nodes() is fresh.nodes()
    assert fresh.edges() == want[2] and fresh.nodes() == want[3]


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
