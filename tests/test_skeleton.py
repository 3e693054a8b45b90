from fractions import Fraction
from math import lcm

import pytest

from rtrees import (
    EdgePoint,
    SkeletonError,
    TreeSkeleton,
    UnknownPointError,
    Vertex,
    canonicalize,
    distance,
    materialize,
    normalize_point,
    point_on_edge,
    point_on_segment,
    validate,
)
from conftest import fw_distance, random_corpus, rng_for, tree_grid
from rtrees.generators import (
    GeneratorConfig,
    degree_family_tree,
    random_point,
    random_rat,
    random_tree,
    rb_extend,
)
from rtrees.skeleton import _leaving_point, _TreeBuilder, gensym, grid_points, hang


def test_constructor_rejects_malformed():
    with pytest.raises(SkeletonError):
        TreeSkeleton("p", [("p", "p", 1)])
    with pytest.raises(SkeletonError):
        TreeSkeleton("p", [("p", "q", 1), ("q", "p", 2)])
    with pytest.raises(SkeletonError):
        TreeSkeleton("bad id", ())


def test_validate_accepts_tripod(tripod):
    report = validate(tripod, 2)
    assert report.ok
    assert report.max_distance == 2


def test_validate_radius_witness(tripod):
    report = validate(tripod, Fraction(3, 2))
    assert not report.ok
    kinds = [v.kind for v in report.violations]
    assert kinds.count("radius_exceeded") == 2
    assert any("node a" in v.detail for v in report.violations)


def test_validate_nonpositive_edge():
    t = TreeSkeleton("p", [("p", "q", 0)])
    report = validate(t, 1)
    assert any(v.kind == "non_positive_edge" for v in report.violations)


def test_validate_disconnected_and_degree_two():
    t = TreeSkeleton("p", [("p", "q", 1)], extra_nodes=["lost"])
    report = validate(t, 2)
    assert any(v.kind == "disconnected" for v in report.violations)
    t2 = TreeSkeleton("p", [("p", "m", 1), ("m", "q", 1)])
    report2 = validate(t2, 2)
    assert any(v.kind == "non_canonical" for v in report2.violations)
    # a labeled middle node is fine
    t3 = TreeSkeleton("p", [("p", "m", 1), ("m", "q", 1)], labels={"m": "mid"})
    assert validate(t3, 2).ok


def test_validate_cycle():
    t = TreeSkeleton("p", [("p", "q", 1), ("q", "s", 1), ("s", "p", 1)])
    report = validate(t, 5)
    assert any(v.kind == "cycle" for v in report.violations)


def test_reach_refuses_a_disconnected_skeleton():
    # a cycle the basepoint's search never meets must not loop either
    t = TreeSkeleton("p", [("p", "y", 1), ("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
    with pytest.raises(SkeletonError, match="not connected to the basepoint"):
        t.directional_reach()


def test_normalize_point(tripod):
    assert normalize_point(tripod, EdgePoint("y", "p", Fraction(1, 4))) == EdgePoint(
        "p", "y", Fraction(3, 4)
    )
    assert normalize_point(tripod, EdgePoint("p", "y", 0)) == Vertex("p")
    assert normalize_point(tripod, EdgePoint("p", "y", 1)) == Vertex("y")
    with pytest.raises(UnknownPointError):
        normalize_point(tripod, EdgePoint("p", "a", Fraction(1, 2)))
    with pytest.raises(UnknownPointError):
        normalize_point(tripod, EdgePoint("p", "y", 2))
    with pytest.raises(UnknownPointError):
        normalize_point(tripod, Vertex("zzz"))


def test_node_queries_reject_unknown_nodes(tripod):
    assert (tripod.neighbors("y"), tripod.degree("y")) == (("a", "b", "p"), 3)
    assert tripod.reaches_at("y", exclude=["p"]) == [1, 1]
    for query in (tripod.neighbors, tripod.degree, tripod.reaches_at):
        with pytest.raises(UnknownPointError, match="unknown node 'zzz'"):
            query("zzz")


def test_distance_examples(tripod):
    p, a, b = Vertex("p"), Vertex("a"), Vertex("b")
    assert distance(tripod, p, p) == 0
    assert distance(tripod, a, b) == 2
    assert distance(tripod, p, point_on_edge(tripod, "y", "a", Fraction(1, 2))) == Fraction(3, 2)
    m1 = point_on_edge(tripod, "p", "y", Fraction(1, 4))
    m2 = point_on_edge(tripod, "p", "y", Fraction(3, 4))
    assert distance(tripod, m1, m2) == Fraction(1, 2)
    assert distance(tripod, m1, point_on_edge(tripod, "y", "b", Fraction(1, 2))) == Fraction(5, 4)


def test_distance_against_floyd_warshall_oracle():
    for tree in random_corpus("fw", 12, max_nodes=7):
        rng = rng_for(("fwpts", tree.nodes()))
        pts = [random_point(rng, tree) for _ in range(5)]
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                assert distance(tree, pts[i], pts[j]) == fw_distance(tree, pts[i], pts[j])


def test_distance_metric_axioms():
    for tree in random_corpus("metric", 8, max_nodes=6):
        pts = tree_grid(tree, 3)
        for x in pts:
            assert distance(tree, x, x) == 0
        rng = rng_for("metric-triples")
        for _ in range(30):
            x, y, z = (pts[rng.randrange(len(pts))] for _ in range(3))
            dxy = distance(tree, x, y)
            assert dxy == distance(tree, y, x)
            assert dxy <= distance(tree, x, z) + distance(tree, z, y)
            if dxy == 0:
                assert normalize_point(tree, x) == normalize_point(tree, y)


def test_materialize_round_trip(tripod):
    pt = point_on_edge(tripod, "p", "y", Fraction(1, 3))
    mat = materialize(tripod, [pt, Vertex("a")])
    node = mat.node_for(pt)
    assert mat.tree.dist_to_basepoint(node) == Fraction(1, 3)
    assert mat.pull_back(Vertex(node)) == pt
    assert mat.push_forward(pt) == Vertex(node)
    # interior of a subdivided half-edge maps back to source coordinates
    half = normalize_point(mat.tree, EdgePoint(node, "y", Fraction(1, 6)))
    assert normalize_point(tripod, mat.pull_back(half)) == point_on_edge(
        tripod, "p", "y", Fraction(1, 2)
    )


def test_canonicalize_merges_pass_through_nodes():
    t = TreeSkeleton("p", [("p", "m", 1), ("m", "q", 1)])
    c = canonicalize(t)
    assert c.nodes() == ("p", "q")
    assert c.edge_length("p", "q") == 2
    labeled = TreeSkeleton("p", [("p", "m", 1), ("m", "q", 1)], labels={"m": "m"})
    assert "m" in canonicalize(labeled).nodes()


def test_point_on_segment(tripod):
    a, b = Vertex("a"), Vertex("b")
    assert point_on_segment(tripod, a, b, Fraction(1)) == Vertex("y")
    assert point_on_segment(tripod, a, b, Fraction(1, 2)) == EdgePoint(
        "a", "y", Fraction(1, 2)
    )
    assert point_on_segment(tripod, a, b, 0) == a
    assert point_on_segment(tripod, a, b, 2) == b
    with pytest.raises(ValueError):
        point_on_segment(tripod, a, b, 3)


def test_grid_points_rejects_non_positive_mesh(tripod):
    assert len(grid_points(tripod, Fraction(1, 2))) == 4 + 3
    for mesh in (0, -1):
        with pytest.raises(ValueError, match="mesh must be positive"):
            grid_points(tripod, mesh)


def test_net_step_cuts_at_the_grid_points():
    # the builder's net step cuts where grid_points lists the edge points,
    # in that order, under the names gensym gives them in turn
    rng = rng_for("net-step")
    for k, tree in enumerate(random_corpus("net-step", 24, max_nodes=7)):
        # some ids that the cuts' names must step over
        rename = {n: f"c{i}" for i, n in enumerate(tree.nodes()) if n != tree.basepoint and i % 2}
        tree = TreeSkeleton(
            tree.basepoint,
            [(rename.get(u, u), rename.get(v, v), w) for u, v, w in tree.edges()],
            extra_nodes=[rename.get(n, n) for n in tree.nodes()],
        )
        mesh = rng.choice([Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(3, 4), Fraction(1)])
        b = _TreeBuilder(tree, mesh.denominator)
        cuts = b.net(mesh.numerator * (b.den // mesh.denominator), "c")
        out = b.freeze()
        want = [pt for pt in grid_points(tree, mesh) if isinstance(pt, EdgePoint)]
        taken = set(tree.nodes())
        assert [c for c, _, _ in cuts] == [gensym(taken, "c") for _ in want], k
        for (c, x, up), pt in zip(cuts, want):
            assert {x, up} == {pt.u, pt.v}
            assert out.dist_to_basepoint(c) == distance(tree, Vertex(tree.basepoint), pt)
        assert out == materialize(tree, want, prefix="c").tree, k


def test_point_on_segment_distances_consistent():
    for tree in random_corpus("seg", 6, max_nodes=6):
        rng = rng_for("segpts")
        for _ in range(10):
            a = random_point(rng, tree)
            b = random_point(rng, tree)
            total = distance(tree, a, b)
            if total == 0:
                continue
            t = total * Fraction(rng.randint(0, 4), 4)
            z = point_on_segment(tree, a, b, t)
            assert distance(tree, a, z) == t
            assert distance(tree, z, b) == total - t


def test_graft_merges_labels_and_hangs_fresh_tips():
    tree = TreeSkeleton("p", [("p", "y", 1), ("y", "a", 1), ("y", "b", 1)], labels={"y": "mid"})
    mat = materialize(tree, [EdgePoint("p", "y", Fraction(1, 2))], prefix="c")
    out = mat.graft([("c1", "tip", Fraction(1, 4))], {"y": ("alpha", "mid"), "tip": ["t"]})
    assert out.basepoint == "p"
    assert out.labels_of("y") == ("alpha", "mid")
    assert out.labels_of("tip") == ("t",)
    assert out.dist_to_basepoint("tip") == Fraction(3, 4)
    assert validate(out, 2).ok
    # the materialization itself is left untouched
    assert not mat.tree.has_node("tip") and mat.tree.labels_of("y") == ("mid",)


def test_graft_on_single_node_keeps_basepoint(lone_point):
    mat = materialize(lone_point, [Vertex("p")])
    relabeled = mat.graft(labels={"p": ("origin",)})
    assert relabeled.basepoint == "p" and relabeled.nodes() == ("p",)
    assert relabeled.labels_of("p") == ("origin",)
    grown = mat.graft([("p", "q", 1)])
    assert grown.basepoint == "p" and grown.edges() == (("p", "q", Fraction(1)),)


def _materialize_and_graft(tree, at, length, tip, prefix, names):
    """Reference for ``hang``: cut the point with ``materialize``, then hang
    the segment and merge the names with ``graft``."""
    mat = materialize(tree, [at], prefix=prefix)
    node = mat.node_for(normalize_point(tree, at))
    edges = []
    if length > 0:
        if mat.tree.has_node(tip):
            tip = gensym(set(mat.tree.nodes()), prefix)
        edges, node = [(node, tip, length)], tip
    return mat.graft(edges, {node: names} if names else None), node


def test_hang_equals_materialize_and_graft():
    checked = 0
    for k, tree in enumerate(random_corpus("hang", 10, max_nodes=7)):
        rng = rng_for(("hang", k))
        tree = TreeSkeleton(tree.basepoint, tree.edges(), labels={tree.nodes()[-1]: "x"})
        u, v, w = tree.edges()[0]
        pts = [Vertex(n) for n in tree.nodes()] + [random_point(rng, tree) for _ in range(5)]
        pts += [EdgePoint(v, u, w / 3), EdgePoint(u, v, w)]  # reversed, and a boundary
        for at in pts:
            # a fresh tip, a node id, and the id the cut takes
            for tip in ("t", tree.nodes()[-1], "c1"):
                for length in (Fraction(0), random_rat(rng, Fraction(1, 8), 2)):
                    for names in ((), ("x", "y")):
                        got = hang(tree, at, length, tip, "c", names)
                        want = _materialize_and_graft(tree, at, length, tip, "c", names)
                        assert got[1] == want[1], (k, at, tip, length, names)
                        assert got[0] == want[0], (k, at, tip, length, names)
                        checked += 1
    assert checked > 1000


def test_root_scale_is_the_lcm_of_the_root_distances():
    # the search sums integer heights over the lcm of the edge lengths'
    # denominators; on a tree each edge is a difference of two root
    # distances, so that is also the lcm of the root distances'
    radii = (Fraction(2), Fraction(7, 3), Fraction(5, 4))
    trees = [random_tree(seed, max_nodes=12, radius=radii[seed % 3]) for seed in range(60)]
    trees += [
        rb_extend(random_tree(seed, max_nodes=5, radius=radii[seed % 3]), radii[seed % 3], depth)
        for seed in range(6)
        for depth in (1, 2)
    ]
    trees += [
        degree_family_tree(GeneratorConfig(seed, depth, r, (3, 4)))
        for seed in range(3)
        for depth in (0, 1)
        for r in radii
    ]
    dens = set()
    for tree in trees:
        den = tree._root_data()[3]
        assert den == lcm(*(tree.dist_to_basepoint(n).denominator for n in tree.nodes()))
        dens.add(den)
    assert len(dens) > 5


def test_leaving_point_matches_the_materialized_vertex():
    # an edge point is a degree-2 vertex: its directions carry the reaches
    # of the node that materialize makes of it, and lead to its edge's ends
    checked = 0
    for tree in random_corpus("leaving", 12, max_nodes=7):
        D = tree._root_data()[3]
        for x in grid_points(tree, Fraction(1, 3)):
            if not isinstance(x, EdgePoint):
                continue
            den = lcm(D, x.offset.denominator)
            leaving = _leaving_point(tree, x, den)
            mat = materialize(tree, [x])
            got = sorted(Fraction(reach, den) for reach, _ in leaving)
            assert got == sorted(mat.tree.reaches_at(mat.node_for(x))), (tree, x)
            for _, (end, length, other) in leaving:
                assert {end, other} == {x.u, x.v}
                assert Fraction(length, den) == distance(tree, x, Vertex(end))
            checked += 1
    assert checked > 50
