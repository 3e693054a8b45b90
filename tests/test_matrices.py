import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rtrees.matrices as matrices
from rtrees import (
    EdgePoint,
    FourPointViolation,
    FourPointWitness,
    MetricMatrix,
    SkeletonError,
    TreeSkeleton,
    UnknownPointError,
    Vertex,
    canonicalize,
    delta_hyperbolicity,
    distance,
    four_point_check,
    rb_extend,
    realize_tree,
    tree_to_matrix,
    tripod,
)
from conftest import fw_distance, gensym, random_corpus, reference_materialize, rng_for
from rtrees.cli import main
from rtrees.generators import random_point
from rtrees.matrices import _insertion_tree, node_of_label
from rtrees.skeleton import grid_points, normalize_point, point_on_segment


TRIPOD_LEAVES = MetricMatrix(
    ("p", "a", "b"), ((0, 2, 2), (2, 0, 2), (2, 2, 0))
)

SQUARE = MetricMatrix(
    ("x", "y", "z", "t"),
    ((0, 2, 1, 1), (2, 0, 1, 1), (1, 1, 0, 2), (1, 1, 2, 0)),
)


def labeled_matrix(tree, pts, names):
    return tree_to_matrix(tree, pts, labels=names)


def reference_four_point(m):
    """Independent reference: the plain Fraction scan over all quadruples,
    returning (indices, labels, lhs, rhs) of the first violation or None."""
    n = len(m.labels)
    e = m.entries
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for t in range(n):
                    lhs = e[x][y] + e[z][t]
                    rhs = max(e[x][z] + e[y][t], e[y][z] + e[x][t])
                    if lhs > rhs:
                        quad = (x, y, z, t)
                        return quad, tuple(m.labels[i] for i in quad), lhs, rhs
    return None


def reference_delta(m):
    """Independent reference: the plain Fraction scan of Gromov products."""
    n = len(m.labels)
    e = m.entries
    worst = Fraction(0)
    for w in range(n):
        gp = [[(e[x][w] + e[y][w] - e[x][y]) / 2 for y in range(n)] for x in range(n)]
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    worst = max(worst, min(gp[x][z], gp[y][z]) - gp[x][y])
    return worst


def witness_tuple(w):
    return w.indices, w.labels, w.lhs, w.rhs


def perturbed_matrices(seed, count):
    """Random-corpus tree metrics with a few entries moved by steps over 3, 4
    or 7, so that the entries mix denominators and many break the condition."""
    out = []
    for k, tree in enumerate(random_corpus(seed, count, max_nodes=7)):
        rng = rng_for((seed, k))
        n = rng.randint(3, 7)
        names = [f"x{i}" for i in range(n)]
        rows = [list(r) for r in labeled_matrix(
            tree, [random_point(rng, tree) for _ in range(n)], names
        ).entries]
        for _ in range(rng.randint(0, 3)):
            i, j = rng.sample(range(n), 2)
            bump = Fraction(rng.randint(1, 6), rng.choice((3, 4, 7)))
            if rng.random() < 0.5 and rows[i][j] >= bump:
                bump = -bump
            rows[i][j] = rows[j][i] = rows[i][j] + bump
        out.append(MetricMatrix(tuple(names), tuple(tuple(r) for r in rows)))
    return out


def test_matrix_shape_validation():
    with pytest.raises(ValueError, match="^matrix is not symmetric$"):
        MetricMatrix(("a", "b"), ((0, 1), (2, 0)))  # asymmetric
    with pytest.raises(ValueError, match="^nonzero diagonal at a$"):
        MetricMatrix(("a", "b"), ((1, 1), (1, 0)))  # nonzero diagonal
    with pytest.raises(ValueError, match="^duplicate labels$"):
        MetricMatrix(("a", "a"), ((0, 0), (0, 0)))  # duplicate labels
    with pytest.raises(ValueError, match="^matrix shape does not match labels$"):
        MetricMatrix(("a", "b"), ((0, 1), (1, 0), (0, 0)))
    with pytest.raises(ValueError, match="^negative entry$"):
        MetricMatrix(("a", "b"), ((0, Fraction(-1, 3)), (Fraction(-2, 6), 0)))
    # the order of the checks: row by row, the diagonal entry first, then
    # each pair for symmetry before its sign
    order = {
        "matrix is not symmetric": [
            ((0, -1), (2, 0)),  # asymmetric and negative
            ((0, 1, 0), (2, 5, 0), (0, 0, 0)),  # nonzero diagonal after an asymmetric pair
            ((0, Fraction(1, 3)), (Fraction(1, 2), 0)),
        ],
        "negative entry": [((0, -1, 1), (-1, 0, 0), (2, 0, 0))],
        "nonzero diagonal at b": [((0, 0, 0), (0, 3, 1), (0, 2, 0))],
    }
    for message, rows in order.items():
        for entries in rows:
            with pytest.raises(ValueError, match=f"^{message}$"):
                MetricMatrix(tuple("abc"[: len(entries)]), entries)
    # equal matrices over other denominators compare, print and copy equal
    half = MetricMatrix(("a", "b"), ((0, Fraction(1, 2)), (Fraction(2, 4), 0)))
    assert half == MetricMatrix(("a", "b"), ((0, "1/2"), ("1/2", 0)))
    assert [f.name for f in dataclasses.fields(half)] == ["labels", "entries"]
    assert repr(half) == (
        "MetricMatrix(labels=('a', 'b'), "
        "entries=((Fraction(0, 1), Fraction(1, 2)), (Fraction(1, 2), Fraction(0, 1))))"
    )
    assert dataclasses.replace(half) == half
    with pytest.raises(ValueError, match="^matrix is not symmetric$"):
        dataclasses.replace(half, entries=((0, 1), (Fraction(1, 2), 0)))


def test_matrix_is_frozen_with_its_integer_form():
    # the scans read the integers kept at construction, so they must stay
    # those of the entries
    m = MetricMatrix(("x", "y"), ((0, 1), (1, 0)))
    for name, value in (("entries", ((0, 2), (2, 0))), ("labels", ("y", "x"))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, name, value)
    assert (m._ints, m._scale) == ([[0, 1], [1, 0]], 1)


def test_four_point_examples():
    assert four_point_check(TRIPOD_LEAVES) is True
    witness = four_point_check(SQUARE)
    assert isinstance(witness, FourPointWitness)
    assert witness.labels == ("x", "y", "z", "t")
    assert witness.lhs == 4 and witness.rhs == 2
    three = MetricMatrix(("a", "b", "c"), ((0, 5, 3), (5, 0, 4), (3, 4, 0)))
    assert four_point_check(three) is True
    # tree metrics whose labels are not usable as node ids: "s1" is the id
    # the insertion gives its first Steiner node, "a b" and "" are malformed
    for labels in (("p", "a", "b", "s1"), ("p", "a b", "", "c")):
        m = MetricMatrix(
            labels, ((0, 2, 2, 3), (2, 0, 2, 3), (2, 2, 0, 1), (3, 3, 1, 0))
        )
        assert four_point_check(m) is True
        assert delta_hyperbolicity(m) == 0


def test_four_point_witness_is_lexicographically_first():
    witness = four_point_check(SQUARE)
    # indices scanned in ascending lexicographic order
    assert witness.indices == (0, 1, 2, 3)


def test_four_point_check_implies_triangle():
    for tree in random_corpus("tri", 6, max_nodes=6):
        rng = rng_for("tripts")
        pts = [random_point(rng, tree) for _ in range(5)]
        m = tree_to_matrix(tree, pts)
        assert four_point_check(m) is True
        e = m.entries
        assert all(
            e[i][j] <= e[i][k] + e[k][j] for i in range(5) for j in range(5) for k in range(5)
        )


def test_delta_examples():
    assert delta_hyperbolicity(TRIPOD_LEAVES) == 0
    assert delta_hyperbolicity(SQUARE) == 1
    assert delta_hyperbolicity(MetricMatrix(("a",), ((0,),))) == 0
    assert delta_hyperbolicity(MetricMatrix(("a", "b"), ((0, 3), (3, 0)))) == 0


def test_delta_zero_iff_four_point():
    assert (delta_hyperbolicity(SQUARE) == 0) == (four_point_check(SQUARE) is True)
    assert (delta_hyperbolicity(TRIPOD_LEAVES) == 0) == (
        four_point_check(TRIPOD_LEAVES) is True
    )


def ordered_delta(m):
    """The scan over ordered quadruples that the 4-multiset scan replaced:
    twice the Gromov products at each ``w``, in integers."""
    if matrices._is_tree_metric(m):
        return Fraction(0)
    n = len(m)
    e, scale = m._ints, m._scale
    worst = 0
    for w in range(n):
        ew = e[w]
        gp = [[ex[w] + ew[y] - ex[y] for y in range(n)] for ex in e]
        for x in range(n):
            gx = gp[x]
            for y in range(n):
                gxy = gx[y]
                gy = gp[y]
                for z in range(n):
                    m1 = gx[z]
                    m2 = gy[z]
                    small = m1 if m1 <= m2 else m2
                    gap = small - gxy
                    if gap > worst:
                        worst = gap
    return Fraction(worst, 2 * scale)


def test_delta_multiset_scan_matches_ordered_scan():
    # symmetric matrices with zero diagonal, most of them not even metrics,
    # from one point up; and the perturbed tree metrics
    rng = rng_for("delta-scan")
    corpus = perturbed_matrices("delta-scan", 40)
    for k in range(300):
        n = 1 + k % 8
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3)))
        corpus.append(MetricMatrix(tuple(f"v{i}" for i in range(n)), tuple(map(tuple, rows))))
    nonzero = 0
    for m in corpus:
        want = ordered_delta(m)
        assert delta_hyperbolicity(m) == want, m
        nonzero += want != 0
    assert nonzero > 150


def test_tree_to_matrix_examples(tripod):
    m = labeled_matrix(tripod, [Vertex("p"), Vertex("a"), Vertex("b")], ["p", "a", "b"])
    assert m.entries == TRIPOD_LEAVES.entries
    single = tree_to_matrix(tripod, [Vertex("p")])
    assert single.entries == ((Fraction(0),),)


def reference_tree_to_matrix(tree, points, labels=None):
    """Independent reference: ``normalize_point`` on every point, then one
    ``distance`` per pair, read by the public constructor."""
    pts = [normalize_point(tree, p) for p in points]
    if labels is None:
        labels = tuple(f"x{i}" for i in range(len(pts)))
    n = len(pts)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = distance(tree, pts[i], pts[j])
    return MetricMatrix(tuple(labels), tuple(tuple(r) for r in rows))


def matrix_point_sets():
    """Seeded ``(tree, points)`` cases: random points, vertices, the
    basepoint, several edge points on one edge (given from either end, over
    mixed denominators) and repeats, on random trees; and grids of
    richly branching extensions of a tripod."""
    out = []
    for k, tree in enumerate(random_corpus("tree-to-matrix", 60, max_nodes=9)):
        rng = rng_for(("tree-to-matrix", k))
        pts = [random_point(rng, tree) for _ in range(rng.randint(0, 6))]
        pts += [Vertex(rng.choice(tree.nodes())) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            pts.append(Vertex(tree.basepoint))
        if tree.edges():
            u, v, length = rng.choice(tree.edges())
            for q in rng.sample((2, 3, 5, 7), 3):
                ends = (u, v) if rng.random() < 0.5 else (v, u)
                pts.append(EdgePoint(*ends, length * Fraction(rng.randint(1, q - 1), q)))
        pts += [rng.choice(pts) for _ in range(rng.randint(0, 2))] if pts else []
        rng.shuffle(pts)
        out.append((tree, pts))
    for depth, mesh in ((1, Fraction(1, 3)), (2, Fraction(1, 2)), (4, Fraction(1, 4))):
        tree = rb_extend(tripod(1, 1, 1), 2, depth)
        out.append((tree, grid_points(tree, mesh)))
    return out


def test_tree_to_matrix_matches_pairwise_reference():
    cases = matrix_point_sets()
    assert sum(len(pts) > 100 for _, pts in cases) >= 1
    for tree, pts in cases:
        got, want = tree_to_matrix(tree, pts), reference_tree_to_matrix(tree, pts)
        assert got == want and got.entries == want.entries and hash(got) == hash(want)
        assert four_point_check(got) == four_point_check(want) is True
        assert delta_hyperbolicity(got) == delta_hyperbolicity(want) == 0
        if pts:
            assert realize_tree(got) == realize_tree(want)
    # the Floyd-Warshall oracle of conftest, on the small cases
    checked = 0
    for tree, pts in cases[:30]:
        m = tree_to_matrix(tree, pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert m.entries[i][j] == fw_distance(tree, pts[i], pts[j])
                checked += 1
    assert checked > 300


def test_tree_to_matrix_edge_cases():
    cyclic = TreeSkeleton("p", [("p", "a", 1), ("a", "b", 1), ("b", "p", 2)])
    apart = TreeSkeleton("p", [("p", "a", 1), ("q", "r", 2)])
    tree = tripod(1, 1, 1)
    # fewer than two points need no distance, so neither a cycle nor a
    # second component is reached
    for t, pts, labels, want in (
        (cyclic, [], None, MetricMatrix((), ())),
        (cyclic, [Vertex("b")], ("a",), MetricMatrix(("a",), ((0,),))),
        (apart, [EdgePoint("r", "q", Fraction(1, 2))], None, MetricMatrix(("x0",), ((0,),))),
    ):
        got = tree_to_matrix(t, pts, labels)
        assert got == want == reference_tree_to_matrix(t, pts, labels)
        assert got.entries == want.entries
    a, b, shape = Vertex("a"), Vertex("b"), "^matrix shape does not match labels$"
    errors = [
        # an unknown point is reported before any cycle
        (cyclic, [a, b, Vertex("zz")], None, UnknownPointError, "^unknown node 'zz'$"),
        (cyclic, [a, b], None, SkeletonError, r"^edge \S+-\S+ closes a cycle"),
        (apart, [a, Vertex("q")], None, SkeletonError, "across disconnected components"),
        (tree, [a, b], ("s", "s"), ValueError, "^duplicate labels$"),
        (tree, [a, b], ("s",), ValueError, shape),
        (tree, [a], ("s", "t"), ValueError, shape),
        (tree, [], ("s",), ValueError, shape),
    ]
    for t, pts, labels, error, message in errors:
        for build in (tree_to_matrix, reference_tree_to_matrix):
            with pytest.raises(error, match=message):
                build(t, pts, labels)


def test_tree_to_matrix_reads_no_entry_through_as_rat(tmp_path, monkeypatch, capsys):
    # a matrix read off a tree is built from its integers: no entry goes
    # through as_rat
    def refuse(*args):
        raise AssertionError("an entry was read through as_rat")

    tree = rb_extend(tripod(1, 1, 1), 2, 1)
    pts = grid_points(tree, Fraction(1, 3))[:20]
    want = reference_tree_to_matrix(tree, pts)
    monkeypatch.setattr(matrices, "as_rat", refuse)
    assert len(pts) == 20 and tree_to_matrix(tree, pts) == want
    path = tmp_path / "t.tree"
    path.write_text(
        "radius 2\nnode p basepoint\nnode y\nnode a\nnode b\n"
        "edge p y 1\nedge y a 1\nedge y b 1\npoint m edge p y 1/3\n"
    )
    assert main(["matrix", "--tree", str(path), "--points", "p,a,m"]) == 0
    assert capsys.readouterr().out == "labels p a m\n2 1/3\n5/3\n"


def test_realize_examples():
    t = realize_tree(TRIPOD_LEAVES, "p")
    # a tripod with a Steiner point at distance 1 from each labeled leaf
    steiner = [n for n in t.nodes() if not t.labels_of(n)]
    assert len(steiner) == 1
    for name in ("p", "a", "b"):
        assert distance(t, Vertex(node_of_label(t, name)), Vertex(steiner[0])) == 1

    two = realize_tree(MetricMatrix(("p", "q"), ((0, 5), (5, 0))), "p")
    assert two.edges() == (("p", "q", Fraction(5)),)

    with pytest.raises(FourPointViolation):
        realize_tree(SQUARE, "x")


def test_realize_label_named_like_a_steiner_node():
    # the insertion names its Steiner nodes s1, s2, ...; a label "s1" placed
    # after the first Steiner node must still get a leaf of its own
    clash = MetricMatrix(
        ("p", "a", "b", "s1"), ((0, 2, 2, 3), (2, 0, 2, 3), (2, 2, 0, 1), (3, 3, 1, 0))
    )
    half = Fraction(1, 2)
    spread = TreeSkeleton(
        "p",
        [("p", "z", half), ("z", "x", half), ("x", "w", half), ("w", "a", half),
         ("x", "b", 1), ("w", "c", 1), ("z", "t", 1)],
    )
    labels = ("p", "a", "b", "c", "s1")
    pts = [Vertex(n) for n in ("p", "a", "b", "c", "t")]
    for m in (clash, tree_to_matrix(spread, pts, labels)):
        t = realize_tree(m, "p")
        back = tree_to_matrix(t, [Vertex(node_of_label(t, s)) for s in m.labels], m.labels)
        assert back.entries == m.entries


def test_realize_rejects_a_label_that_is_not_a_node_id():
    with pytest.raises(SkeletonError, match="bad node id"):
        realize_tree(MetricMatrix(("a", "b c"), ((0, 1), (1, 0))))


def test_realized_tree_is_canonical():
    # every Steiner cut gets a leaf or a label; labels s1, s2, ... collide
    # with the ids the insertion gives its Steiner nodes
    checked = 0
    for k, tree in enumerate(random_corpus("realize-canonical", 40, max_nodes=8)):
        rng = rng_for(("realize-canonical", k))
        n = rng.randint(2, 7)
        pts = [random_point(rng, tree) for _ in range(n)]
        names = [f"s{i}" if k % 2 else f"x{i}" for i in range(n)]
        realized = realize_tree(labeled_matrix(tree, pts, names), names[0])
        assert canonicalize(realized) == realized
        checked += any(realized.has_node(s) and not realized.labels_of(s) for s in names)
    assert checked  # some labels did collide with Steiner ids


def test_realize_merges_duplicates():
    m = MetricMatrix(("p", "a", "b"), ((0, 1, 1), (1, 0, 0), (1, 0, 0)))
    t = realize_tree(m, "p")
    node = node_of_label(t, "a")
    assert node == node_of_label(t, "b")
    assert set(t.labels_of(node)) == {"a", "b"}


def test_realize_round_trip_random():
    for k, tree in enumerate(random_corpus("realize", 15, max_nodes=8)):
        rng = rng_for(("rt", k))
        n = rng.randint(2, 6)
        pts = [random_point(rng, tree) for _ in range(n)]
        names = [f"x{i}" for i in range(n)]
        m = labeled_matrix(tree, pts, names)
        realized = realize_tree(m, "x0")
        back = labeled_matrix(
            realized, [Vertex(node_of_label(realized, s)) for s in names], names
        )
        assert back.entries == m.entries
        # minimality: realized is spanned by the labeled points
        from rtrees import endpoints

        for e in endpoints(realized):
            assert realized.labels_of(e.node)


def test_realized_tree_is_zero_hyperbolic():
    for tree in random_corpus("zerohyp", 6, max_nodes=7):
        rng = rng_for("zerohyp-pts")
        pts = [random_point(rng, tree) for _ in range(5)]
        assert delta_hyperbolicity(tree_to_matrix(tree, pts)) == 0


def test_scans_match_fraction_reference_on_perturbed_matrices():
    rejected = 0
    for m in perturbed_matrices("perturbed", 40):
        ref = reference_four_point(m)
        got = four_point_check(m)
        if ref is None:
            assert got is True
        else:
            rejected += 1
            assert witness_tuple(got) == ref
        assert delta_hyperbolicity(m) == reference_delta(m)
    assert rejected >= 10


@pytest.mark.parametrize(
    "m",
    [
        # out-of-range attachment: c's height toward b exceeds d(a, b)
        MetricMatrix(("a", "b", "c"), ((0, 1, 5), (1, 0, 1), (5, 1, 0))),
        # negative leaf: c attaches above its own distance from a
        MetricMatrix(("a", "b", "c"), ((0, 5, 1), (5, 0, 1), (1, 1, 0))),
        # every attachment in range, but the round trip differs
        SQUARE,
    ],
    ids=["out-of-range", "negative-leaf", "round-trip-mismatch"],
)
def test_realize_fallback_raises_reference_witness(m):
    with pytest.raises(FourPointViolation) as info:
        realize_tree(m, m.labels[0])
    assert witness_tuple(info.value.witness) == reference_four_point(m)


def test_realize_unknown_basepoint():
    with pytest.raises(FourPointViolation) as info:
        realize_tree(SQUARE, "nowhere")
    assert witness_tuple(info.value.witness) == reference_four_point(SQUARE)
    with pytest.raises(ValueError) as info:
        realize_tree(TRIPOD_LEAVES, "nowhere")
    assert not isinstance(info.value, FourPointViolation)


def test_realize_empty_matrix():
    empty = MetricMatrix((), ())
    for basepoint in (None, "p"):
        with pytest.raises(ValueError, match="empty matrix") as info:
            realize_tree(empty, basepoint)
        assert not isinstance(info.value, FourPointViolation)
    assert four_point_check(empty) is True
    assert delta_hyperbolicity(empty) == 0


def reference_insertion(m, basepoint_label):
    """Independent reference for the insertion: the same construction in
    ``Fraction``s, each step cutting the attachment point with
    ``reference_materialize`` and hanging the leaf with ``graft``, checked by a
    ``distance`` round trip; ``None`` where it gives up."""
    e, labels = m.entries, m.labels
    index = {lbl: i for i, lbl in enumerate(labels)}
    order = [basepoint_label] + [l for l in labels if l != basepoint_label]
    groups = {}
    for lbl in order:
        seen = next((g for g in groups if e[index[lbl]][index[g]] == 0), lbl)
        groups.setdefault(seen, []).append(lbl)
    base, *reps = groups
    base_row = e[index[base]]
    tree = TreeSkeleton(base, (), labels={base: tuple(groups[base])}, extra_nodes=[base])
    node_of = {base: base}
    for lbl in reps:
        row, d_base = e[index[lbl]], base_row[index[lbl]]
        best_h, anchor = Fraction(0), base
        for other in list(node_of)[1:]:
            h = (d_base + base_row[index[other]] - row[index[other]]) / 2
            if h > best_h:
                best_h, anchor = h, other
        leaf_len = d_base - best_h
        if best_h > base_row[index[anchor]] or leaf_len < 0:
            return None
        at = point_on_segment(tree, Vertex(base), Vertex(node_of[anchor]), best_h)
        mat = reference_materialize(tree, [at], prefix="s")
        node, edges = mat.node_for(normalize_point(tree, at)), []
        if leaf_len > 0:
            tip = gensym(set(mat.tree.nodes()), "s") if mat.tree.has_node(lbl) else lbl
            edges, node = [(node, tip, leaf_len)], tip
        tree, node_of[lbl] = mat.graft(edges, {node: groups[lbl]}), node
    pts = [Vertex(node_of_label(tree, l)) for l in labels]
    for i, row in enumerate(e):
        for j in range(i + 1, len(row)):
            if distance(tree, pts[i], pts[j]) != row[j]:
                return None
    return tree


def grouped_matrices(seed, count):
    """Tree metrics on points drawn with repeats from a small pool, so that
    labels fall into zero-distance groups, some with one entry perturbed."""
    out = []
    for k, tree in enumerate(random_corpus(seed, count, max_nodes=7)):
        rng = rng_for((seed, k))
        pool = [random_point(rng, tree) for _ in range(3)]
        n = rng.randint(2, 7)
        names = [f"x{i}" for i in range(n)]
        m = labeled_matrix(tree, [rng.choice(pool) for _ in range(n)], names)
        out.append(m)
        rows = [list(r) for r in m.entries]
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rows[i][j] + Fraction(1, 3)
        out.append(MetricMatrix(m.labels, tuple(tuple(r) for r in rows)))
    return out


def canonical_corpus_matrices():
    """The matrices of ``test_realized_tree_is_canonical``, whose ``s``
    labels collide with the insertion's Steiner ids."""
    out = []
    for k, tree in enumerate(random_corpus("realize-canonical", 40, max_nodes=8)):
        rng = rng_for(("realize-canonical", k))
        n = rng.randint(2, 7)
        pts = [random_point(rng, tree) for _ in range(n)]
        out.append(labeled_matrix(tree, pts, [f"s{i}" if k % 2 else f"x{i}" for i in range(n)]))
    return out


def test_insertion_matches_fraction_reference():
    matrices = (
        perturbed_matrices("perturbed", 40)
        + canonical_corpus_matrices()
        + grouped_matrices("grouped", 30)
    )
    built = grouped = 0
    for m in matrices:
        for basepoint in (m.labels[0], m.labels[-1]):
            want = reference_insertion(m, basepoint)
            got = _insertion_tree(m, m.labels, basepoint)
            assert (got is None) == (want is None), (m, basepoint)
            if got is not None:
                assert got.freeze() == want, (m, basepoint)
                built += 1
                grouped += any(len(names) > 1 for names in want.labels.values())
    assert built > 100 and grouped > 10


@st.composite
def small_matrices(draw):
    """Symmetric matrices, n <= 6, entries in [0, 4] with denominators up to
    6; many are not metrics at all."""
    n = draw(st.integers(1, 6))
    # k % (4 q + 1) / q spans [0, 4], zero included
    entry = st.tuples(st.integers(0, 24), st.integers(1, 6))
    drawn = iter(draw(st.lists(entry, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k, q = next(drawn)
            rows[i][j] = rows[j][i] = Fraction(k % (4 * q + 1), q)
    prefix = draw(st.sampled_from("xs"))  # "s" labels collide with Steiner ids
    return MetricMatrix(tuple(f"{prefix}{i}" for i in range(n)), tuple(map(tuple, rows)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_matrices())
def test_matrix_checks_match_references(m):
    ref = reference_four_point(m)
    got = four_point_check(m)
    if ref is None:
        assert got is True
        realize_tree(m)
    else:
        assert witness_tuple(got) == ref
        with pytest.raises(FourPointViolation) as info:
            realize_tree(m)
        assert witness_tuple(info.value.witness) == ref
    assert delta_hyperbolicity(m) == reference_delta(m)
