import re
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
    check_rt_axioms,
    distance,
    materialize,
    normalize_point,
    point_on_edge,
    point_on_segment,
    psi_at,
    rb_deficiency,
    validate,
)
from conftest import (
    fw_distance,
    gensym,
    random_corpus,
    reference_materialize,
    rng_for,
    tree_grid,
)
from rtrees.generators import (
    GeneratorConfig,
    degree_family_tree,
    random_point,
    random_rat,
    random_tree,
    rb_extend,
)
import rtrees.skeleton as skeleton
from rtrees.skeleton import _leaving_point, _TreeBuilder, grid_points, hang


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


def test_whole_tree_computations_refuse_a_second_component_alike():
    # one check names the least node off the basepoint's component for the
    # reach table, the axioms, psi and its sup
    t = TreeSkeleton("p", [("p", "y", 1), ("d", "c", 1)], extra_nodes=["b"])
    calls = [
        t.directional_reach,
        lambda: t.reaches_at("p"),
        lambda: check_rt_axioms(t, 2, 1),
        lambda: rb_deficiency(t, 2),
        lambda: psi_at(t, Vertex("y"), 1),
    ]
    for call in calls:
        with pytest.raises(SkeletonError, match="^node 'b' not connected to the basepoint$"):
            call()


def test_vertex_queries_name_what_they_refuse():
    t = TreeSkeleton("p", [("p", "y", 1), ("a", "b", 1)])
    assert t.dist_to_basepoint("y") == 1
    with pytest.raises(SkeletonError, match="^node 'a' not connected to the basepoint$"):
        t.dist_to_basepoint("a")
    with pytest.raises(UnknownPointError, match="^" + re.escape("unknown node in pair ('y', 'zz')") + "$"):
        t.vertex_distance("y", "zz")
    with pytest.raises(SkeletonError, match="^distance query across disconnected components$"):
        t.vertex_distance("y", "b")


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


def _canonicalize_to_a_fixpoint(tree):
    """``canonicalize`` as the loop it was: passes over the nodes until one
    suppresses nothing."""
    protected = {tree.basepoint} | set(tree.labels)
    adj = {u: dict(nbrs) for u, nbrs in tree._adj.items()}
    changed = True
    while changed:
        changed = False
        for node in sorted(adj):
            if node in protected or len(adj[node]) != 2:
                continue
            (n1, w1), (n2, w2) = sorted(adj[node].items())
            if n1 == n2 or n2 in adj[n1]:
                continue
            del adj[node]
            del adj[n1][node]
            del adj[n2][node]
            adj[n1][n2] = w1 + w2
            adj[n2][n1] = w1 + w2
            changed = True
    edges = [(u, v, w) for u, nbrs in adj.items() for v, w in nbrs.items() if u < v]
    isolated = [n for n in adj if not adj[n]]
    return TreeSkeleton(tree.basepoint, edges, labels=dict(tree.labels), extra_nodes=isolated)


def test_canonicalize_in_one_pass_equals_the_fixpoint_loop():
    rng = rng_for("canonical-one-pass")
    graphs = []
    for _ in range(4000):
        # sparse random graphs: many degree-2 nodes, cycles, some labels
        nodes = [f"n{i}" for i in range(rng.randint(1, 9))]
        p = rng.choice([0.2, 0.3, 0.45])
        edges = [
            (u, v, Fraction(rng.randint(1, 6), rng.randint(1, 3)))
            for i, u in enumerate(nodes)
            for v in nodes[i + 1 :]
            if rng.random() < p
        ]
        labels = {n: "x" for n in nodes if rng.random() < 0.15}
        graphs.append(TreeSkeleton(rng.choice(nodes), edges, labels, extra_nodes=nodes))
    # trees whose edges are cut into chains of degree-2 nodes
    trees = random_corpus("one-pass", 300, max_nodes=6)
    graphs += [reference_materialize(t, grid_points(t, Fraction(1, 2))).tree for t in trees]
    suppressed = 0
    for tree in graphs:
        got = canonicalize(tree)
        assert got == _canonicalize_to_a_fixpoint(tree), tree.edges()
        suppressed += len(tree.nodes()) - len(got.nodes())
    assert suppressed > 2500


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
        assert out == reference_materialize(tree, want, prefix="c").tree, k


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


def _materialize_corpus():
    """Trees with point lists for ``materialize`` against its reference: ids
    that collide with the cuts' names, reversed and boundary edge points,
    repeated points, whole grids, and a lone point."""
    lone = TreeSkeleton("p", (), labels={"p": "o"}, extra_nodes=["p"])
    cases = [(lone, [Vertex("p")]), (lone, [])]
    for k, tree in enumerate(random_corpus("materialize", 40, max_nodes=8)):
        rng = rng_for(("materialize", k))
        rename = {n: f"cut{i}" for i, n in enumerate(tree.nodes()) if i % 2}
        nodes = [rename.get(n, n) for n in tree.nodes()]
        tree = TreeSkeleton(
            rename.get(tree.basepoint, tree.basepoint),
            [(rename.get(u, u), rename.get(v, v), w) for u, v, w in tree.edges()],
            labels={n: f"l{i}" for i, n in enumerate(nodes) if rng.random() < 0.3},
            extra_nodes=nodes,
        )
        u, v, w = rng.choice(tree.edges())
        pts = [random_point(rng, tree) for _ in range(rng.randint(1, 6))]
        pts += [EdgePoint(v, u, w / 3), EdgePoint(u, v, w), EdgePoint(v, u, w), EdgePoint(u, v, 0)]
        pts += rng.sample(pts, 3)
        rng.shuffle(pts)
        cases.append((tree, pts))
        cases.append((tree, grid_points(tree, rng.choice([Fraction(1, 3), Fraction(2, 5)]))))
    return cases


def test_materialize_equals_the_reference_loop():
    # the builder's cuts, frozen, against the edge-splitting loop, field by field
    checked = 0
    for tree, pts in _materialize_corpus():
        for prefix in ("cut", "c"):
            got, want = materialize(tree, pts, prefix), reference_materialize(tree, pts, prefix)
            case = (tree, pts, prefix)
            assert got.tree == want.tree, case
            assert got.points == want.points, case
            assert got.to_source == want.to_source, case
            assert got.spans == want.spans, case
            checked += len(got.points)
    assert checked > 1000


def test_materialize_refuses_a_skeleton_that_is_not_a_metric_tree():
    not_trees = {
        "closes a cycle": TreeSkeleton("p", [("p", "a", 1), ("a", "b", 1), ("b", "p", 1)]),
        "node 'b' not connected to the basepoint": TreeSkeleton("p", [("p", "a", 1), ("b", "c", 1)]),
        "edge a-b has length 0": TreeSkeleton("p", [("p", "a", 1), ("a", "b", 0)]),
        "edge a-p has length -1": TreeSkeleton("p", [("p", "a", -1)]),
    }
    for message, tree in not_trees.items():
        with pytest.raises(SkeletonError, match=message):
            materialize(tree, [Vertex("p")])
        # the reference loop subdivides such input all the same
        reference_materialize(tree, [Vertex("p")])


def test_pull_back_names_unknown_points(tripod):
    mat = materialize(tripod, [EdgePoint("p", "y", Fraction(1, 2))])
    with pytest.raises(UnknownPointError, match="unknown node 'zz'"):
        mat.pull_back(Vertex("zz"))
    for u, v in (("u", "v"), ("p", "y")):
        with pytest.raises(UnknownPointError, match=f"unknown edge {u}-{v}"):
            mat.pull_back(EdgePoint(u, v, Fraction(1, 4)))
    with pytest.raises(SkeletonError, match="pull_back expects normalized points"):
        mat.pull_back(EdgePoint("y", "cut1", Fraction(1, 4)))
    assert mat.pull_back(EdgePoint("cut1", "y", Fraction(1, 4))) == EdgePoint("p", "y", Fraction(3, 4))


def test_push_forward_and_node_for_name_unknown_points():
    tree = TreeSkeleton("p", [("p", "q", 2), ("q", "a", 1)])
    at = EdgePoint("p", "q", Fraction(1))
    mat = materialize(tree, [at])
    cut = mat.node_for(at)
    # either orientation of a source edge, on either side of the cut
    for pt, want in (
        (EdgePoint("q", "p", Fraction(1, 2)), EdgePoint(cut, "q", Fraction(1, 2))),
        (EdgePoint("p", "q", Fraction(1, 2)), EdgePoint(cut, "p", Fraction(1, 2))),
        (EdgePoint("q", "p", Fraction(1)), Vertex(cut)),
        (EdgePoint("a", "q", Fraction(1, 4)), EdgePoint("a", "q", Fraction(1, 4))),
        (EdgePoint("q", "p", Fraction(2)), Vertex("p")),
        (Vertex("a"), Vertex("a")),
    ):
        assert mat.push_forward(pt) == normalize_point(mat.tree, want), pt
        assert mat.pull_back(mat.push_forward(pt)) == normalize_point(tree, pt), pt
    # the texts normalize_point gives on the source skeleton
    for bad in (
        EdgePoint("p", "zz", Fraction(1, 2)),
        EdgePoint("p", "a", Fraction(1, 2)),
        EdgePoint("p", "q", Fraction(5)),
        EdgePoint("q", "p", Fraction(-1)),
        Vertex("zz"),
        Vertex(cut),
    ):
        with pytest.raises(UnknownPointError) as exc:
            mat.push_forward(bad)
        with pytest.raises(UnknownPointError, match=f"^{re.escape(str(exc.value))}$"):
            normalize_point(tree, bad)
    for bad in (Vertex("zz"), Vertex("q"), EdgePoint("q", "p", Fraction(1))):
        with pytest.raises(UnknownPointError, match=re.escape(f"point {bad!r} was not materialized")):
            mat.node_for(bad)


def test_oracles_do_not_route_through_the_code_they_check(monkeypatch):
    # the Floyd-Warshall distance and the reference materialization must
    # run with the rooted search and the tree builder switched off
    cases = []
    for k, tree in enumerate(random_corpus("oracle-guard", 5, max_nodes=7)):
        rng = rng_for(("oracle-guard", k))
        a, b = random_point(rng, tree), random_point(rng, tree)
        grid = grid_points(tree, Fraction(1, 2))
        cases.append((tree, a, b, distance(tree, a, b), materialize(tree, grid), grid))

    def refuse(*_args, **_kwargs):
        raise AssertionError("an oracle ran through the code it checks")

    monkeypatch.setattr(TreeSkeleton, "_search", refuse)
    monkeypatch.setattr(TreeSkeleton, "_root_data", refuse)
    monkeypatch.setattr(skeleton, "_TreeBuilder", refuse)
    for tree, a, b, d, mat, grid in cases:
        assert fw_distance(tree, a, b) == d
        assert reference_materialize(tree, grid) == mat
    with pytest.raises(AssertionError, match="through the code it checks"):
        materialize(cases[0][0], cases[0][5])


def _materialize_and_graft(tree, at, length, tip, prefix, names):
    """Reference for ``hang``: cut the point with ``reference_materialize``,
    then hang the segment and merge the names with ``graft``."""
    mat = reference_materialize(tree, [at], prefix=prefix)
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
    # of the node that the reference materialization makes of it, and lead to
    # its edge's ends
    checked = 0
    for tree in random_corpus("leaving", 12, max_nodes=7):
        D = tree._root_data()[3]
        for x in grid_points(tree, Fraction(1, 3)):
            if not isinstance(x, EdgePoint):
                continue
            den = lcm(D, x.offset.denominator)
            leaving = _leaving_point(tree, x, den)
            mat = reference_materialize(tree, [x])
            got = sorted(Fraction(reach, den) for reach, _ in leaving)
            assert got == sorted(mat.tree.reaches_at(mat.node_for(x))), (tree, x)
            for _, (end, length, other) in leaving:
                assert {end, other} == {x.u, x.v}
                assert Fraction(length, den) == distance(tree, x, Vertex(end))
            checked += 1
    assert checked > 50
