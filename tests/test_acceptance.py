"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Criterion 11a is implemented faithfully and is expected to fail
for depths >= 3; see the README for the analysis.
"""

import itertools
from fractions import Fraction

import pytest

from rtrees import (
    EdgePoint,
    GeneratorConfig,
    GlueSpec,
    IndependenceQuery,
    MetricMatrix,
    NTypeDescriptor,
    OneTypeDescriptor,
    SubtreeMap,
    TreeSkeleton,
    Vertex,
    amalgamate,
    apply_context_isometry,
    au_distance,
    au_sample_ball,
    branch_degree_multiset,
    canonical_base,
    degree_family_tree,
    delta_hyperbolicity,
    distance,
    extend_nonforking,
    four_point_check,
    glue_family,
    gromov_product,
    is_principal,
    is_star_independent,
    median,
    normalize_point,
    one_type_distance,
    piecewise_segment_check,
    point_on_edge,
    project_to_subtree,
    psi_at,
    psi_grid_oracle,
    random_tree,
    rb_deficiency,
    rb_extend,
    realize_tree,
    realize_type,
    segment,
    spanned_subtree,
    transfer_point,
    tree_to_matrix,
    tripod,
    type_distance_search,
    type_of,
    types_equal,
    types_equal_transferred,
    validate,
    validate_descriptor,
)
from rtrees.generators import random_point
from rtrees.matrices import node_of_label
from conftest import rng_for

R = Fraction(2)


def report(number: str, ok: bool, label: str) -> bool:
    print(f"criterion {number:>3} {'PASS' if ok else 'FAIL'}: {label}")
    return ok


@pytest.fixture(scope="module")
def corpus():
    rng = rng_for("acceptance-corpus")
    return [random_tree(rng, max_nodes=12, radius=R) for _ in range(200)]


def _triples(tree, rng, limit=10):
    nodes = [Vertex(n) for n in tree.nodes()]
    all_triples = list(itertools.combinations(nodes, 3))
    if len(all_triples) <= limit:
        return all_triples or [(nodes[0], nodes[0], nodes[0])]
    return [all_triples[rng.randrange(len(all_triples))] for _ in range(limit)]


def test_criterion_1_branch_identity(corpus):
    rng = rng_for("c1")
    ok = True
    for tree in corpus:
        for a, b, c in _triples(tree, rng, limit=12):
            seg_dist = distance(tree, b, median(tree, a, c, b))
            lhs = distance(tree, a, b) + distance(tree, b, c)
            rhs = distance(tree, a, c) + 2 * seg_dist
            ok = ok and lhs == rhs and seg_dist == gromov_product(tree, a, c, b)
    count = 0
    while count < 1000:
        tree = corpus[rng.randrange(len(corpus))]
        if not tree.edges():
            continue
        a, b, c = (random_point(rng, tree) for _ in range(3))
        seg_dist = distance(tree, b, median(tree, a, c, b))
        lhs = distance(tree, a, b) + distance(tree, b, c)
        ok = ok and lhs == distance(tree, a, c) + 2 * seg_dist
        count += 1
    assert report("1", ok, "branch identity d(a,b)+d(b,c) = d(a,c) + 2 dist(b,[a,c])")


def test_criterion_2_median_formula(corpus):
    rng = rng_for("c2")
    ok = True
    for tree in corpus:
        for a, b, c in _triples(tree, rng, limit=5):
            m = median(tree, a, b, c)
            for node in tree.nodes():
                x = Vertex(node)
                want = max(
                    gromov_product(tree, a, b, x),
                    gromov_product(tree, a, c, x),
                    gromov_product(tree, b, c, x),
                )
                ok = ok and distance(tree, x, m) == want
    assert report("2", ok, "median distance equals max of three Gromov products")


def test_criterion_3_zero_hyperbolicity(corpus):
    ok = True
    for tree in corpus:
        pts = [Vertex(n) for n in tree.nodes()]
        ok = ok and delta_hyperbolicity(tree_to_matrix(tree, pts)) == 0
    square = MetricMatrix(
        ("x", "y", "z", "t"),
        ((0, 2, 1, 1), (2, 0, 1, 1), (1, 1, 0, 2), (1, 1, 2, 0)),
    )
    witness = four_point_check(square)
    ok = ok and delta_hyperbolicity(square) == 1
    ok = ok and witness is not True and witness.lhs == 4 and witness.rhs == 2
    assert report("3", ok, "trees are 0-hyperbolic; the square witness has delta 1")


def test_criterion_4_realization_round_trip():
    rng = rng_for("c4")
    ok = True
    for k in range(500):
        tree = random_tree(rng, max_nodes=10, radius=R)
        n = rng.randint(2, min(10, max(2, len(tree.nodes()))))
        pts = [random_point(rng, tree) for _ in range(n)]
        names = [f"x{i}" for i in range(n)]
        m = tree_to_matrix(tree, pts, labels=names)
        realized = realize_tree(m, "x0")
        back = tree_to_matrix(
            realized, [Vertex(node_of_label(realized, s)) for s in names], labels=names
        )
        ok = ok and back.entries == m.entries
    assert report("4", ok, "tree_to_matrix . realize_tree = identity on 500 matrices")


def _labeled(tree):
    return TreeSkeleton(
        tree.basepoint,
        tree.edges(),
        labels={n: n for n in tree.nodes()},
        extra_nodes=tree.nodes(),
    )


def test_criterion_5_amalgamation_soundness():
    rng = rng_for("c5")
    ok = True
    for k in range(100):
        base = _labeled(random_tree(rng, max_nodes=5, radius=Fraction(1)))
        sides = []
        for side in range(2):
            attachments = []
            for _ in range(rng.randint(1, 2)):
                at = random_point(rng, base)
                budget = R - distance(base, Vertex(base.basepoint), at)
                if budget <= 0:
                    continue
                arm = segment(
                    budget * Fraction(rng.randint(1, 3), 4), basepoint="u0", tip="w"
                )
                attachments.append((arm, Vertex("u0"), at))
            sides.append(
                glue_family(GlueSpec(base=base, attachments=tuple(attachments)), R)
            )
        m1, m2 = sides
        shared = SubtreeMap(
            source=m1,
            target=m2,
            pairs=tuple((Vertex(n), Vertex(n)) for n in base.nodes()),
        )
        amalgam, g1, g2 = amalgamate(m1, m2, shared, R)
        f1, f2 = dict(g1.pairs), dict(g2.pairs)
        for tree, mapping in ((m1, f1), (m2, f2)):
            nodes = tree.nodes()
            for i, unode in enumerate(nodes):
                for vnode in nodes[i + 1:]:
                    ok = ok and distance(
                        amalgam, mapping[Vertex(unode)], mapping[Vertex(vnode)]
                    ) == tree.vertex_distance(unode, vnode)
        for a_pt, b_pt in shared.pairs:
            ok = ok and f1[a_pt] == f2[b_pt]
        s1 = spanned_subtree(m1, [a for a, _ in shared.pairs])
        s2 = spanned_subtree(m2, [b for _, b in shared.pairs])
        inv = shared.inverse()
        for unode in m1.nodes():
            if s1.covers(Vertex(unode)):
                continue
            for vnode in m2.nodes():
                if s2.covers(Vertex(vnode)):
                    continue
                e_u, d_u = project_to_subtree(m1, s1, Vertex(unode))
                e_v, d_v = project_to_subtree(m2, s2, Vertex(vnode))
                mid = distance(m1, e_u, inv.map_point(e_v))
                ok = ok and distance(
                    amalgam, f1[Vertex(unode)], f2[Vertex(vnode)]
                ) == d_u + mid + d_v
    assert report("5", ok, "amalgamation embeds isometrically, commutes, obeys the cross law")


def test_criterion_6_one_types_isometric_to_interval():
    dot = TreeSkeleton("p", (), extra_nodes=["p"])
    ctx = spanned_subtree(dot, [])
    rng = rng_for("c6")
    ok = True
    for _ in range(1000):
        s = Fraction(rng.randint(0, 64), 32)
        t = Fraction(rng.randint(0, 64), 32)
        qs = OneTypeDescriptor(ctx, R, Vertex("p"), s)
        qt = OneTypeDescriptor(ctx, R, Vertex("p"), t)
        ok = ok and one_type_distance(qs, qt) == abs(s - t)
    assert report("6", ok, "1-types over the empty set are isometric to [0, r]")


def test_criterion_7_two_type_separation():
    # the equilateral family: arms s give a 2-type with offsets and mutual
    # distance 2s; its distance to the arm-t type is exactly 2 max(s, t).
    # Arms range over (0, r/2] so that realizations respect the radius.
    dot = TreeSkeleton("p", (), extra_nodes=["p"])
    ctx = spanned_subtree(dot, [])

    def family(arm):
        return NTypeDescriptor(
            context=ctx,
            radius=R,
            closest=(Vertex("p"), Vertex("p")),
            offsets=(2 * arm, 2 * arm),
            pairwise=((Fraction(0), 2 * arm), (2 * arm, Fraction(0))),
        )

    rng = rng_for("c7")
    mesh = R / 64
    ok = True
    for _ in range(20):
        num_s = rng.randint(17, 32)
        num_t = rng.randint(8, num_s - 1)
        s = Fraction(num_s, 64) * R  # arms in (r/4, r/2]
        t = Fraction(num_t, 64) * R
        cv = type_distance_search(family(s), family(t), mesh)
        ok = ok and cv.upper == 2 * s
        ok = ok and cv.lower >= 2 * s - 6 * mesh
    assert report("7", ok, "tripod 2-type family separates at exactly twice the arm")


def test_criterion_8_type_round_trip_and_uniqueness():
    rng = rng_for("c8")
    ok = True
    for k in range(300):
        tree = random_tree(rng, max_nodes=7, radius=R)
        A_pts = [random_point(rng, tree) for _ in range(rng.randint(0, 2))]
        b_pts = [random_point(rng, tree) for _ in range(rng.randint(1, 4))]
        q = type_of(tree, A_pts, b_pts, R)
        ok = ok and validate_descriptor(q) is True
        ext, realized = realize_type(tree, q)
        q_back = type_of(ext, [transfer_point(ext, a) for a in A_pts], realized, R)
        ok = ok and types_equal_transferred(q, q_back)
        if k % 10 == 0:
            # two independent realizations produce identical combined matrices
            ctx1 = spanned_subtree(
                ext, [transfer_point(ext, g) for g in q.context.generators]
            )
            q_in_ext = NTypeDescriptor(
                context=ctx1,
                radius=R,
                closest=tuple(transfer_point(ext, e) for e in q.closest),
                offsets=q.offsets,
                pairwise=q.pairwise,
            )
            ext2, realized2 = realize_type(ext, q_in_ext)
            anchors = [transfer_point(ext2, g) for g in q.context.generators]
            first = anchors + [transfer_point(ext2, pt) for pt in realized]
            second = anchors + list(realized2)
            m1 = [[distance(ext2, x, y) for y in first] for x in first]
            m2 = [[distance(ext2, x, y) for y in second] for x in second]
            ok = ok and m1 == m2
    assert report("8", ok, "realize_type . type_of round trips; realizations are unique")


def test_criterion_9_independence_axioms():
    rng = rng_for("c9")
    ok = True
    trees = []
    for k in range(25):
        base = _labeled(random_tree(rng, max_nodes=5, radius=Fraction(1)))
        attachments = []
        for _ in range(rng.randint(1, 2)):
            at = random_point(rng, base)
            budget = R - distance(base, Vertex(base.basepoint), at)
            if budget > 0:
                arm = segment(budget / 2, basepoint="u0", tip="w")
                attachments.append((arm, Vertex("u0"), at))
        trees.append(glue_family(GlueSpec(base=base, attachments=tuple(attachments)), R))

    checks = 0
    while checks < 500:
        tree = trees[rng.randrange(len(trees))]
        def pts(n):
            return tuple(random_point(rng, tree) for _ in range(n))
        A, B, C, D = pts(rng.randint(1, 2)), pts(1), pts(rng.randint(0, 2)), pts(1)
        fwd = is_star_independent(IndependenceQuery(tree, A, B, C)).independent
        bwd = is_star_independent(IndependenceQuery(tree, B, A, C)).independent
        ok = ok and fwd == bwd
        lhs = is_star_independent(IndependenceQuery(tree, A, B + D, C)).independent
        rhs = (
            is_star_independent(IndependenceQuery(tree, A, B, C)).independent
            and is_star_independent(IndependenceQuery(tree, A, D, B + C)).independent
        )
        ok = ok and lhs == rhs
        whole = is_star_independent(IndependenceQuery(tree, A, B, C)).independent
        singles = all(
            is_star_independent(IndependenceQuery(tree, (a,), B, C)).independent
            for a in A
        )
        ok = ok and whole == singles
        checks += 3

    # stationarity and constructive extension on 40 instances
    for k in range(40):
        tree = trees[rng.randrange(len(trees))]
        b = random_point(rng, tree)
        A_pts = [random_point(rng, tree)]
        q = type_of(tree, A_pts, [b], R)
        B_pts = [random_point(rng, tree)]
        q_ext = extend_nonforking(tree, q, B_pts)
        ok = ok and validate_descriptor(q_ext) is True
        ext1, pts1 = realize_type(tree, q_ext)
        ctx1 = spanned_subtree(
            ext1, [transfer_point(ext1, g) for g in q_ext.context.generators]
        )
        q_ext1 = NTypeDescriptor(
            context=ctx1,
            radius=R,
            closest=tuple(transfer_point(ext1, e) for e in q_ext.closest),
            offsets=q_ext.offsets,
            pairwise=q_ext.pairwise,
        )
        ext2, pts2 = realize_type(ext1, q_ext1)
        union = [transfer_point(ext2, x) for x in A_pts] + [
            transfer_point(ext2, x) for x in B_pts
        ]
        r1 = transfer_point(ext2, pts1[0])
        r2 = pts2[0]
        for real in (r1, r2):
            ok = ok and is_star_independent(
                IndependenceQuery(
                    ext2,
                    (real,),
                    tuple(transfer_point(ext2, x) for x in B_pts),
                    tuple(transfer_point(ext2, x) for x in A_pts),
                )
            ).independent
        t1 = type_of(ext2, union, [r1], R)
        t2 = type_of(ext2, union, [r2], R)
        ok = ok and types_equal(t1, t2)
    assert report("9", ok, "independence axioms hold on 500 randomized queries")


def test_criterion_10_canonical_base_surrogate():
    rng = rng_for("c10")
    ok = True
    for k in range(100):
        trunk = Fraction(rng.randint(1, 4), 4)
        arm = Fraction(rng.randint(1, 4), 4)
        tree = TreeSkeleton(
            "p",
            [("p", "v", trunk), ("v", "m1", arm), ("v", "m2", arm)],
            labels={"m1": "m1", "m2": "m2", "v": "v"},
        )
        swap = {"m1": "m2", "m2": "m1"}

        def iso(pt):
            if isinstance(pt, Vertex):
                return Vertex(swap.get(pt.node, pt.node))
            return normalize_point(
                tree, EdgePoint(swap.get(pt.u, pt.u), swap.get(pt.v, pt.v), pt.offset)
            )

        ctx_pts = [Vertex("m1"), Vertex("m2")]
        ctx = spanned_subtree(tree, ctx_pts)
        # base on the swap-fixed trunk: descriptor preserved
        e_fixed = (
            Vertex("v")
            if rng.random() < 0.5 or trunk == 0
            else point_on_edge(tree, "p", "v", trunk * Fraction(rng.randint(1, 3), 4))
        )
        bound = R - distance(tree, Vertex("p"), e_fixed)
        q_fixed = NTypeDescriptor(
            context=ctx,
            radius=R,
            closest=(e_fixed,),
            offsets=(bound * Fraction(rng.randint(0, 4), 8),),
            pairwise=((Fraction(0),),),
        )
        moved = apply_context_isometry(q_fixed, iso)
        ok = ok and types_equal(q_fixed, moved)
        ok = ok and canonical_base(q_fixed) == (normalize_point(tree, e_fixed),)
        # base inside an arm: the swap moves it and the descriptor changes
        e_arm = point_on_edge(tree, "v", "m1", arm * Fraction(rng.randint(1, 3), 4))
        bound = R - distance(tree, Vertex("p"), e_arm)
        q_arm = NTypeDescriptor(
            context=ctx,
            radius=R,
            closest=(e_arm,),
            offsets=(bound * Fraction(rng.randint(0, 4), 8),),
            pairwise=((Fraction(0),),),
        )
        ok = ok and not types_equal(q_arm, apply_context_isometry(q_arm, iso))
    assert report("10", ok, "isometries fixing the base preserve types; movers change them")


def _seed_trees():
    rng = rng_for("c11-seeds")
    seeds = [
        TreeSkeleton("p", (), extra_nodes=["p"]),
        tripod(1, 1, 1),
        segment(R),
    ]
    while len(seeds) < 10:
        seeds.append(random_tree(rng, max_nodes=5, radius=R))
    return seeds


def test_criterion_11a_deficiency_convergence():
    """Faithful implementation of the stated bound.

    The bound r / 2**(k-1) cannot hold for k >= 3: any sphere-reaching
    witness edge of length L carries an interior point whose exact
    deficiency is L/2 (realized by splitting the edge at depth L/4), and
    every finite extension attaches such edges with L close to r.  The
    values are reported and the criterion is asserted as written.
    """
    results = []
    ok = True
    for seed_idx, seed in enumerate(_seed_trees()):
        for k in range(0, 7):
            value = rb_deficiency(rb_extend(seed, R, k), R)
            bound = R / (2 ** (k - 1)) if k >= 1 else 2 * R
            good = value <= bound
            ok = ok and good
            if not good:
                results.append((seed_idx, k, value, bound))
    if results:
        worst = "; ".join(
            f"seed {s} depth {k}: deficiency {v} > bound {b}"
            for s, k, v, b in results[:4]
        )
        report("11a", ok, f"deficiency bound r/2^(k-1) (first failures: {worst})")
    else:
        report("11a", ok, "deficiency bound r/2^(k-1) for k = 0..6")
    assert ok, (
        "rb_deficiency(rb_extend(seed, r, k)) <= r/2^(k-1) fails for k >= 3; "
        "finite trees cannot halve the deficiency below ~r/2 at feasible size "
        f"(failures: {results})"
    )


def test_criterion_11b_psi_oracle_agreement():
    mesh = R / 128
    ok = True
    trip = tripod(1, 1, 1)
    probes = [
        Vertex("p"),
        Vertex("y"),
        Vertex("a"),
        point_on_edge(trip, "p", "y", Fraction(1, 2)),
        point_on_edge(trip, "y", "a", Fraction(1, 4)),
    ]
    for x in probes:
        exact = psi_at(trip, x, R)
        oracle = psi_grid_oracle(trip, x, R, mesh)
        ok = ok and exact <= oracle <= exact + 2 * mesh
    rng = rng_for("c11b")
    for k in range(20):
        tree = random_tree(rng, max_nodes=6, radius=R)
        nodes = tree.nodes()
        probes = [Vertex(nodes[rng.randrange(len(nodes))])]
        if tree.edges():
            u, v, length = tree.edges()[rng.randrange(len(tree.edges()))]
            probes.append(point_on_edge(tree, u, v, length / 2))
        for x in probes:
            exact = psi_at(tree, x, R)
            oracle = psi_grid_oracle(tree, x, R, mesh)
            ok = ok and exact <= oracle <= exact + 2 * mesh
    assert report("11b", ok, "psi_at agrees with the grid oracle at mesh r/128")


def test_criterion_12_principal_types():
    rng = rng_for("c12")
    ok = True
    for k in range(1000):
        tree = random_tree(rng, max_nodes=6, radius=R)
        pts = [random_point(rng, tree) for _ in range(rng.randint(1, 3))]
        q = type_of(tree, [], pts, R)
        ordered = sorted(pts, key=lambda x: distance(tree, Vertex(tree.basepoint), x))
        geometric = piecewise_segment_check(
            tree, [Vertex(tree.basepoint)] + ordered
        )
        ok = ok and is_principal(q) == geometric
    # non-collinear tuples in generator outputs realize non-principal types
    outputs = [
        rb_extend(TreeSkeleton("p", (), extra_nodes=["p"]), R, 0),
        degree_family_tree(GeneratorConfig(seed=1, depth=1, radius=R, degree_set=(3,))),
        tripod(1, 1, 1),
    ]
    for tree in outputs:
        leaves = [
            Vertex(n)
            for n in tree.nodes()
            if tree.degree(n) == 1 and n != tree.basepoint
        ]
        for x, y in itertools.combinations(leaves, 2):
            if piecewise_segment_check(tree, [Vertex(tree.basepoint), x, y]):
                continue
            if piecewise_segment_check(tree, [Vertex(tree.basepoint), y, x]):
                continue
            q = type_of(tree, [], [x, y], R)
            ok = ok and not is_principal(q)
    assert report("12", ok, "principality arithmetic matches the segment criterion")


def test_criterion_13_universal_tree_metric():
    from conftest import random_step_function as _random_step_function, zero_function as _zero_function

    rng = rng_for("c13")
    funcs = [_zero_function()] + [_random_step_function(rng, 4, R) for _ in range(60)]
    ok = True
    for _ in range(1000):
        f = funcs[rng.randrange(len(funcs))]
        g = funcs[rng.randrange(len(funcs))]
        d = au_distance(f, g)
        ok = ok and d == au_distance(g, f) and d >= 0
        if f == g:
            ok = ok and d == 0
    for _ in range(2000):
        w, x, y, z = (funcs[rng.randrange(len(funcs))] for _ in range(4))
        lhs = au_distance(w, x) + au_distance(y, z)
        rhs = max(
            au_distance(w, y) + au_distance(x, z),
            au_distance(x, y) + au_distance(w, z),
        )
        ok = ok and lhs <= rhs
    for seed in range(5):
        fs, tree = au_sample_ball(3, 5, R, seed=seed)
        names = [f"f{i}" for i in range(5)]
        pts = [Vertex(node_of_label(tree, s)) for s in names]
        m = tree_to_matrix(tree, pts, labels=names)
        for i in range(5):
            for j in range(5):
                ok = ok and m.entries[i][j] == au_distance(fs[i], fs[j])
    assert report("13", ok, "step-function metric: identity, symmetry, 4-point, realization")


def test_criterion_14_degree_families():
    degree_sets = [
        (3,), (4,), (5,), (6,), (7,),
        (3, 4), (3, 5), (4, 5), (4, 6), (3, 4, 5),
    ]
    ok = True
    multisets = []
    for degrees in degree_sets:
        cfg = GeneratorConfig(
            seed=3, depth=max(2, len(degrees)), radius=R, degree_set=degrees
        )
        tree = degree_family_tree(cfg)
        ok = ok and validate(tree, R).ok
        ms = branch_degree_multiset(tree)
        ok = ok and set(ms) == set(degrees)
        multisets.append(ms)
    for i in range(len(multisets)):
        for j in range(i + 1, len(multisets)):
            ok = ok and multisets[i] != multisets[j]
    assert report("14", ok, "degree families have the configured, pairwise-distinct spectra")
