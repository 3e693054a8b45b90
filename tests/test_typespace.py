import dataclasses
import hashlib
import re
from fractions import Fraction

import pytest

import rtrees.typespace as typespace
from rtrees import (
    ContextMismatchError,
    EdgePoint,
    GlueSpec,
    InconsistentDescriptorError,
    NTypeDescriptor,
    OneTypeDescriptor,
    RadiusExceededError,
    TreeSkeleton,
    UnknownPointError,
    Vertex,
    apply_context_isometry,
    canonical_base,
    combined_matrix,
    dcl_acl,
    distance,
    four_point_check,
    glue_family,
    is_principal,
    materialize,
    normalize_point,
    one_type_distance,
    piecewise_segment_check,
    point_on_edge,
    rb_extend,
    realize_type,
    segment,
    spanned_subtree,
    transfer_point,
    tripod,
    type_distance_exact,
    type_distance_search,
    type_of,
    types_equal,
    types_equal_transferred,
    validate_descriptor,
)
from conftest import random_corpus, reference_realize_type, rng_for
from rtrees.generators import random_point, random_tree
from rtrees.rationals import format_rat
from rtrees.skeleton import SkeletonError, hang, point_on_segment, point_sort_key


R = Fraction(2)
P, Y, A, B = Vertex("p"), Vertex("y"), Vertex("a"), Vertex("b")


def empty_context_descriptor(offsets, rho, radius=R):
    tree = TreeSkeleton("p", (), extra_nodes=["p"])
    ctx = spanned_subtree(tree, [])
    n = len(offsets)
    pairwise = tuple(tuple(Fraction(rho[i][j]) for j in range(n)) for i in range(n))
    return NTypeDescriptor(
        context=ctx,
        radius=Fraction(radius),
        closest=(Vertex("p"),) * n,
        offsets=tuple(Fraction(s) for s in offsets),
        pairwise=pairwise,
    )


def test_type_of_examples(tripod):
    q = type_of(tripod, [], [A], R)
    assert q.closest == (P,) and q.offsets == (Fraction(2),)

    inside = type_of(tripod, [A], [Y], R)
    assert inside.closest == (Y,) and inside.offsets == (Fraction(0),)

    q2 = type_of(tripod, [Y], [A, B], R)
    assert q2.closest == (Y, Y)
    assert q2.offsets == (1, 1)
    assert q2.pairwise[0][1] == 2
    assert validate_descriptor(q2) is True


def test_validate_descriptor_violations(tripod):
    ctx = spanned_subtree(tripod, [Y])
    bad_offset = NTypeDescriptor(
        context=ctx, radius=R, closest=(Y,), offsets=(Fraction(2),), pairwise=((Fraction(0),),)
    )
    v = validate_descriptor(bad_offset)  # bound is r - d(p,y) = 1
    assert v is not True and v.kind == "offset_bound"

    bad_rho = NTypeDescriptor(
        context=ctx,
        radius=R,
        closest=(Y, Y),
        offsets=(Fraction(1), Fraction(1)),
        pairwise=((Fraction(0), Fraction(3)), (Fraction(3), Fraction(0))),
    )
    v = validate_descriptor(bad_rho)  # rho > s1 + s2 breaks the 4-point condition
    assert v is not True and v.kind == "four_point"
    assert four_point_check(combined_matrix(bad_rho)) is not True


SHAPE = "pairwise_shape: matrix shape does not match labels"


@pytest.mark.parametrize(
    "offsets, pairwise",
    [
        ((1, 1), ((0,),)),  # too few rows
        ((1, 1), ((0, 1), (1,))),  # a short row
        ((1, 1), ((0, 1, 1), (1, 0, 1))),  # a long row
        ((1, 1), ((0, 1), (1, 0), (1, 1))),  # an extra row
        ((1,), ((0, 1), (1, 0))),  # too few offsets
        ((1, 1, 1), ((0, 1), (1, 0))),  # an extra offset
        ((5, 1), ((0, 1),)),  # a bad offset too: the shape is reported first
    ],
)
def test_validate_descriptor_reports_a_malformed_shape(tripod, offsets, pairwise):
    ctx = spanned_subtree(tripod, [Y])
    q = NTypeDescriptor(ctx, R, (P, P), offsets, pairwise)
    v = validate_descriptor(q)
    assert v is not True and str(v) == SHAPE
    for check in (
        typespace.require_valid,
        lambda q: realize_type(tripod, q),
        lambda q: type_distance_exact(q, q),
    ):
        with pytest.raises(InconsistentDescriptorError, match=f"^{SHAPE}$"):
            check(q)


def _combined_matrix_validation(q):
    """Validation as a rule on the combined matrix: the structural checks,
    then the four-point check of :func:`combined_matrix`."""
    n = q.n
    if len(q.offsets) != n or len(q.pairwise) != n or any(len(row) != n for row in q.pairwise):
        return typespace.DescriptorViolation("pairwise_shape", "matrix shape does not match labels")
    tree = q.context.ambient
    for i in range(n):
        if not q.context.covers(q.closest[i]):
            return typespace.DescriptorViolation(
                "offset_bound", f"closest point {i + 1} lies outside the context"
            )
        bound = q.radius - distance(tree, Vertex(tree.basepoint), q.closest[i])
        if q.offsets[i] < 0 or q.offsets[i] > bound:
            return typespace.DescriptorViolation(
                "offset_bound",
                f"offset s_{i + 1}={format_rat(q.offsets[i])} outside [0, {format_rat(bound)}]",
            )
    for i in range(n):
        if q.pairwise[i][i] != 0:
            return typespace.DescriptorViolation("pairwise_shape", f"rho_{i + 1},{i + 1} != 0")
        for j in range(n):
            if q.pairwise[i][j] != q.pairwise[j][i] or q.pairwise[i][j] < 0:
                return typespace.DescriptorViolation("pairwise_shape", f"rho_{i + 1},{j + 1} malformed")
    try:
        m = combined_matrix(q)
    except ValueError as exc:
        return typespace.DescriptorViolation("pairwise_shape", str(exc))
    check = four_point_check(m)
    if check is not True:
        return typespace.DescriptorViolation("four_point", str(check), witness=check)
    return True


def _perturbed_descriptors(seeds):
    """Per seed, the type of n = 1..4 points of a random tree over 0-2
    parameters, and that type with one rho moved by k/8, one offset moved by
    k/8, and every rho redrawn."""
    for seed in range(seeds):
        rng = rng_for(("validation-rule", seed))
        tree = random_tree(rng, max_nodes=rng.randint(2, 7), radius=R)
        params = [random_point(rng, tree) for _ in range(rng.randint(0, 2))]
        n = rng.randint(1, 4)
        q = type_of(tree, params, [random_point(rng, tree) for _ in range(n)], R)
        yield q
        i, j = rng.randrange(n), rng.randrange(n)
        rho = [list(row) for row in q.pairwise]
        if i != j:
            rho[i][j] = rho[j][i] = rho[i][j] + Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), 8)
        yield dataclasses.replace(q, pairwise=tuple(map(tuple, rho)))
        offsets = list(q.offsets)
        offsets[i] += Fraction(rng.choice([-2, -1, 1, 2]), 8)
        yield dataclasses.replace(q, offsets=tuple(offsets))
        rho = [[Fraction(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(a):
                rho[a][b] = rho[b][a] = Fraction(rng.randint(0, 32), 8)
        yield dataclasses.replace(q, pairwise=tuple(map(tuple, rho)))


def test_validation_by_realization_matches_the_combined_matrix_rule():
    # the same kind, detail and witness as the four-point check of the
    # combined matrix, on valid and perturbed descriptors alike
    cases = list(_perturbed_descriptors(300))
    want = [_combined_matrix_validation(q) for q in cases]
    assert [validate_descriptor(q) for q in cases] == want
    kinds = {w if w is True else w.kind for w in want}
    assert kinds == {True, "four_point", "offset_bound", "pairwise_shape"}
    assert sum(w is True for w in want) >= 300
    # a valid descriptor is accepted without building the combined matrix
    valid = [q for q, w in zip(cases, want) if w is True]

    def refuse(q):
        raise AssertionError("combined matrix built for a valid descriptor")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(typespace, "combined_matrix", refuse)
        assert all(validate_descriptor(q) is True for q in valid)


def _two_orientations(tripod):
    """The midpoint of p-y written in both orientations, over the context
    spanned by a."""
    ctx = spanned_subtree(tripod, [A])
    half = Fraction(1, 2)
    return ctx, EdgePoint("y", "p", half), EdgePoint("p", "y", half)


def test_descriptors_normalize_their_closest_points(tripod):
    ctx, e1, e2 = _two_orientations(tripod)
    quarter = Fraction(1, 4)
    q = NTypeDescriptor(ctx, R, (e1, e2), (quarter, quarter), ((0, quarter), (quarter, 0)))
    assert q.closest == (e2, e2)
    # one closest point: one class, realized with rho = 1/4
    tree, (b1, b2) = realize_type(tripod, q)
    assert distance(tree, b1, b2) == quarter
    assert types_equal_transferred(q, type_of(tree, [A], [b1, b2], R))
    assert canonical_base(q) == (e2,)

    qa, qb = (NTypeDescriptor(ctx, R, (e,), (quarter,), ((0,),)) for e in (e1, e2))
    assert types_equal(qa, qb) and type_distance_exact(qa, qb) == 0
    assert OneTypeDescriptor(ctx, R, e1, quarter).e == e2


def test_descriptors_are_frozen(tripod):
    ctx, e1, _ = _two_orientations(tripod)
    q = NTypeDescriptor(ctx, R, (e1,), (Fraction(0),), ((0,),))
    q1 = q.marginal(0)
    for obj, field in ((q, "closest"), (q, "offsets"), (q1, "e"), (q1, "s")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))


@pytest.mark.parametrize(
    "pt", [Vertex("zz"), EdgePoint("a", "b", Fraction(1, 2)), EdgePoint("p", "y", Fraction(3, 2))]
)
def test_descriptors_refuse_unknown_closest_points(tripod, pt):
    ctx = spanned_subtree(tripod, [A])
    with pytest.raises(UnknownPointError) as expected:
        normalize_point(tripod, pt)
    message = f"^{re.escape(str(expected.value))}$"
    with pytest.raises(UnknownPointError, match=message):
        NTypeDescriptor(ctx, R, (P, pt), (Fraction(0),) * 2, ((0, 0), (0, 0)))
    with pytest.raises(UnknownPointError, match=message):
        OneTypeDescriptor(ctx, R, pt, Fraction(0))


def test_types_equal_same_offsets_distinct_branches(tripod):
    qa = type_of(tripod, [Y], [point_on_edge(tripod, "y", "a", Fraction(1, 2))], R)
    qb = type_of(tripod, [Y], [point_on_edge(tripod, "y", "b", Fraction(1, 2))], R)
    assert types_equal(qa, qb)
    qc = type_of(tripod, [Y], [point_on_edge(tripod, "y", "b", Fraction(1, 4))], R)
    assert not types_equal(qa, qc)


def test_types_equal_context_mismatch(tripod):
    q1 = type_of(tripod, [], [A], R)
    q2 = type_of(tripod, [Y], [A], R)
    with pytest.raises(ContextMismatchError):
        types_equal(q1, q2)


def test_realize_type_examples():
    dot = TreeSkeleton("p", (), extra_nodes=["p"])
    q = NTypeDescriptor(
        context=spanned_subtree(dot, []),
        radius=R,
        closest=(Vertex("p"),),
        offsets=(Fraction(2),),
        pairwise=((Fraction(0),),),
    )
    ext, pts = realize_type(dot, q)
    assert distance(ext, Vertex("p"), pts[0]) == 2

    q2 = empty_context_descriptor([2, 2], [[0, 2], [2, 0]])
    ext2, pts2 = realize_type(TreeSkeleton("p", (), extra_nodes=["p"]), q2)
    # fresh tripod: both points at distance 2 from p and from each other
    assert distance(ext2, pts2[0], pts2[1]) == 2
    assert distance(ext2, Vertex("p"), pts2[0]) == 2


def test_realize_type_round_trip_random():
    for k, tree in enumerate(random_corpus("typert", 10, max_nodes=6)):
        rng = rng_for(("typert", k))
        A_pts = [random_point(rng, tree) for _ in range(rng.randint(0, 2))]
        b_pts = [random_point(rng, tree) for _ in range(rng.randint(1, 3))]
        q = type_of(tree, A_pts, b_pts, R)
        assert validate_descriptor(q) is True
        ext, realized = realize_type(tree, q)
        A_ext = [transfer_point(ext, a) for a in A_pts]
        q_back = type_of(ext, A_ext, realized, R)
        assert types_equal_transferred(q, q_back)


def test_realize_type_uniqueness_of_combined_matrix(tripod):
    q = type_of(tripod, [Y], [A, B], R)
    ext1, pts1 = realize_type(tripod, q)
    # realize a second copy inside the extension of the first
    ctx1 = spanned_subtree(ext1, [transfer_point(ext1, g) for g in q.context.generators])
    q_in_ext = NTypeDescriptor(
        context=ctx1, radius=R,
        closest=tuple(transfer_point(ext1, e) for e in q.closest),
        offsets=q.offsets, pairwise=q.pairwise,
    )
    ext2, pts2 = realize_type(ext1, q_in_ext)
    anchors = [transfer_point(ext2, g) for g in q.context.generators]
    m1 = [
        [distance(ext2, x, y) for y in anchors + [transfer_point(ext2, p) for p in pts1]]
        for x in anchors + [transfer_point(ext2, p) for p in pts1]
    ]
    m2 = [
        [distance(ext2, x, y) for y in anchors + list(pts2)]
        for x in anchors + list(pts2)
    ]
    assert m1 == m2


def test_realize_type_matches_reference():
    # the cut-and-insert realization against class trees glued on and
    # looked up by label: the same tree, node ids included, and points
    checked = 0
    for k, tree in enumerate(random_corpus("realize-ref", 70, max_nodes=7)):
        rng = rng_for(("realize-ref", k))
        for _ in range(3):
            A_pts = [random_point(rng, tree) for _ in range(rng.randint(0, 2))]
            b_pts = [random_point(rng, tree) for _ in range(rng.randint(1, 3))]
            q = type_of(tree, A_pts, b_pts, R)
            ext, realized = realize_type(tree, q)
            want, want_pts = reference_realize_type(tree, q)
            assert ext.basepoint == want.basepoint
            assert ext.edges() == want.edges() and ext.labels == want.labels
            assert realized == want_pts
            checked += 1
    assert checked >= 200


def test_chained_realization_returns_its_own_points():
    # the second realization's points carry the labels t1, t2 that the
    # first one already put on the tree; they must not be confused
    t = tripod(1, 1, 1)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    q1 = NTypeDescriptor(spanned_subtree(t, [P]), R, (P, P), (half, half), ((0, 1), (1, 0)))
    ext1, _ = realize_type(t, q1)
    rho = Fraction(3, 2)
    q2 = NTypeDescriptor(
        spanned_subtree(ext1, [A]), R, (P, Y), (quarter, quarter), ((0, rho), (rho, 0))
    )
    ext2, pts = realize_type(ext1, q2)
    back = type_of(ext2, [A], pts, R)
    assert (back.closest, back.offsets, back.pairwise) == (q2.closest, q2.offsets, q2.pairwise)
    # a taken tip id gets a fresh id under the class's prefix
    assert pts == (Vertex("g0:s1"), Vertex("g1:t2"))


def test_realize_type_keeps_every_ambient_node():
    # p - m - q with m unlabeled of degree 2: the extension keeps m
    amb = TreeSkeleton("p", [("p", "m", 1), ("m", "q", 1)])
    q = NTypeDescriptor(spanned_subtree(amb, [Vertex("q")]), Fraction(3), (Vertex("q"),),
                        (Fraction(1),), ((0,),))
    ext, (b,) = realize_type(amb, q)
    assert set(amb.nodes()) <= set(ext.nodes())
    assert transfer_point(ext, Vertex("m")) == Vertex("m")
    assert distance(ext, Vertex("m"), b) == 2


def test_realize_type_rejects_bad_ambients():
    far = TreeSkeleton("p", [("p", "y", 1), ("y", "z", 2)])
    apart = TreeSkeleton("p", [("p", "y", 1)], extra_nodes=["z"])
    for amb, error, text in (
        (far, RadiusExceededError, "point z would sit at distance 3 > 2 from the basepoint"),
        (apart, SkeletonError, "node 'z' not connected to the basepoint"),
    ):
        q = NTypeDescriptor(spanned_subtree(amb, [Y]), R, (Y,), (Fraction(1, 2),), ((0,),))
        with pytest.raises(error, match=f"^{text}$"):
            realize_type(amb, q)


def test_an_isolated_ambient_node_is_refused_only_by_a_grown_tree():
    # validation copies the ambient tree but never freezes it, so its answers
    # stand; every tree grown from it names the node off the basepoint's
    # component
    apart = TreeSkeleton("p", [("p", "y", 1)], extra_nodes=["z"])
    ctx = spanned_subtree(apart, [Y])
    half = Fraction(1, 2)
    q = NTypeDescriptor(ctx, R, (Y, Y), (half, half), ((0, 1), (1, 0)))
    assert validate_descriptor(q) is True
    assert type_distance_exact(q, q) == 0
    assert type_distance_search(q, q, Fraction(1, 4)).upper == 0
    for grow in (
        lambda: realize_type(apart, q),
        lambda: materialize(apart, [EdgePoint("p", "y", half)]),
        lambda: hang(apart, Y, 1, "w", "c"),
        lambda: rb_extend(apart, R, 1),
    ):
        with pytest.raises(SkeletonError, match="^node 'z' not connected to the basepoint$"):
            grow()


def test_realize_type_reports_a_bad_descriptor_before_a_mismatched_tree(tripod):
    q = type_of(tripod, [Y], [A], R)
    bad = dataclasses.replace(q, offsets=(Fraction(3),))
    with pytest.raises(InconsistentDescriptorError, match="^offset_bound: "):
        realize_type(segment(R), bad)
    with pytest.raises(ContextMismatchError):
        realize_type(segment(R), q)


def test_one_type_distance_cases(tripod):
    ctx = spanned_subtree(tripod, [Y])  # the trunk [p, y]
    q1 = OneTypeDescriptor(ctx, R, P, Fraction(1, 2))
    q2 = OneTypeDescriptor(ctx, R, Y, Fraction(1, 2))
    assert one_type_distance(q1, q2) == 2  # s1 + d(p,y) + s2
    assert one_type_distance(q1, q1) == 0
    q3 = OneTypeDescriptor(ctx, R, P, Fraction(3, 2))
    assert one_type_distance(q1, q3) == 1  # same closest point


def test_one_type_distance_empty_context_isometric_to_interval():
    dot = TreeSkeleton("p", (), extra_nodes=["p"])
    ctx = spanned_subtree(dot, [])
    rng = rng_for("s1-interval")
    for _ in range(50):
        s = Fraction(rng.randint(0, 32), 16)
        t = Fraction(rng.randint(0, 32), 16)
        qs = OneTypeDescriptor(ctx, R, Vertex("p"), s)
        qt = OneTypeDescriptor(ctx, R, Vertex("p"), t)
        assert one_type_distance(qs, qt) == abs(s - t)


def test_one_type_distance_rejects_offsets_beyond_the_radius():
    ctx = spanned_subtree(TreeSkeleton("p", (), extra_nodes=["p"]), [])
    ok = OneTypeDescriptor(ctx, Fraction(1), Vertex("p"), Fraction(1))
    bad = OneTypeDescriptor(ctx, Fraction(1), Vertex("p"), Fraction(3))
    for q1, q2 in ((bad, ok), (ok, bad)):
        with pytest.raises(InconsistentDescriptorError) as info:
            one_type_distance(q1, q2)
        assert str(info.value) == "offset_bound: offset s_1=3 outside [0, 1]"
    negative = OneTypeDescriptor(ctx, Fraction(1), Vertex("p"), Fraction(-1))
    with pytest.raises(InconsistentDescriptorError):
        one_type_distance(ok, negative)


def test_one_type_distance_is_a_metric(tripod):
    ctx = spanned_subtree(tripod, [Y])
    rng = rng_for("otd-metric")
    pts = [P, Y, point_on_edge(tripod, "p", "y", Fraction(1, 4))]
    descs = []
    for _ in range(12):
        e = pts[rng.randrange(len(pts))]
        bound = R - distance(tripod, P, e)
        descs.append(OneTypeDescriptor(ctx, R, e, bound * Fraction(rng.randint(0, 4), 4)))
    for q1 in descs:
        for q2 in descs:
            d12 = one_type_distance(q1, q2)
            assert d12 == one_type_distance(q2, q1)
            for q3 in descs:
                assert d12 <= one_type_distance(q1, q3) + one_type_distance(q3, q2)


def test_type_distance_search_n1_collapses(tripod):
    q1 = type_of(tripod, [Y], [A], R)
    q2 = type_of(tripod, [Y], [point_on_edge(tripod, "p", "y", Fraction(1, 2))], R)
    cv = type_distance_search(q1, q2, R / 16)
    want = one_type_distance(q1.marginal(0), q2.marginal(0))
    assert cv.exact and cv.lower == want


def test_type_distance_search_identical(tripod):
    q = type_of(tripod, [Y], [A, B], R)
    cv = type_distance_search(q, q, R / 16)
    assert cv.exact and cv.upper == 0


def test_type_distance_search_tripod_family():
    for s, t in [(Fraction(3, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4))]:
        q_s = empty_context_descriptor([2 * s, 2 * s], [[0, 2 * s], [2 * s, 0]])
        q_t = empty_context_descriptor([2 * t, 2 * t], [[0, 2 * t], [2 * t, 0]])
        cv = type_distance_search(q_s, q_t, R / 64)
        assert cv.upper == 2 * s
        assert cv.lower >= 2 * s - 12 * (R / 64)
        # never undercuts the marginal bound
        assert cv.lower >= 2 * s - 2 * t


def test_type_distance_search_truncated_stays_certified():
    # two unit arms diverging at p against collinear offsets (1, 2): a budget
    # that cuts the search short must not report the full search's lower end
    q1 = empty_context_descriptor([1, 1], [[0, 2], [2, 0]])
    q2 = empty_context_descriptor([1, 2], [[0, 1], [1, 0]])
    full = type_distance_search(q1, q2, R / 16)
    assert not full.truncated
    for budget in (1, 3, 8, 50):
        cv = type_distance_search(q1, q2, R / 16, max_configs=budget)
        assert cv.lower <= full.upper <= cv.upper
        if budget in (1, 3):
            assert cv.truncated


def _sphere_oracle(tree, host, lam, forbidden):
    """The points at distance ``lam`` from ``host``, found edge by edge,
    kept when the first edge piece of their arc from ``host`` has its
    midpoint outside ``forbidden`` (an unknown edge counts as outside)."""
    found = set()
    for u, v, length in tree.edges():
        du, dv = distance(tree, host, Vertex(u)), distance(tree, host, Vertex(v))
        for off in (lam - du, du - lam, length - lam + dv, length + lam - dv):
            if 0 <= off <= length and distance(tree, host, point_on_edge(tree, u, v, off)) == lam:
                found.add(point_on_edge(tree, u, v, off))
    pieces = [w for _, _, w in tree.edges()]
    if not isinstance(host, Vertex):
        pieces += [host.offset, tree.edge_length(host.u, host.v) - host.offset]
    eps = min(pieces + [lam]) / 2
    kept = []
    for pt in found:
        # a point just off host on the arc names the first edge; the piece
        # runs from host to that edge's end on the far side
        step = point_on_segment(tree, host, pt, eps)
        far = Vertex(step.u)
        if distance(tree, step, far) > distance(tree, host, far):
            far = Vertex(step.v)
        mid = point_on_segment(tree, host, far, distance(tree, host, far) / 2)
        try:
            covered = forbidden.covers(mid)
        except SkeletonError:
            covered = False
        if not covered:
            kept.append(pt)
    return sorted(kept, key=point_sort_key)


def test_sphere_points_match_an_edgewise_oracle():
    cases = 0
    for k in range(30):
        rng = rng_for(("sphere-points", k))
        tree = random_tree(rng, max_nodes=rng.randint(2, 8), radius=R)
        forbidden = spanned_subtree(tree, [random_point(rng, tree) for _ in range(rng.randint(0, 2))])
        if k % 2:
            # fresh edges, unknown to the context's ambient
            at = random_point(rng, tree)
            tree, _ = hang(tree, at, Fraction(rng.randint(1, 8), 8), "h", "hc")
        u, v, length = rng.choice(tree.edges())
        hosts = [
            Vertex(tree.basepoint),
            Vertex(rng.choice(tree.nodes())),
            point_on_edge(tree, u, v, length * Fraction(rng.randint(1, 3), 4)),
        ]
        for host in hosts:
            for j in range(1, 41):
                lam = Fraction(j, 8)
                got = typespace._sphere_points(tree, host, lam, forbidden)
                assert got == _sphere_oracle(tree, host, lam, forbidden), (k, host, lam)
                cases += 1
    assert cases == 3600


def test_sphere_points_test_the_first_pieces_midpoint_only():
    # the first piece from p is the whole edge, whose midpoint lies outside
    # the span of p~q@1/2, so a point inside that span is still returned
    t = segment(2)
    forbidden = spanned_subtree(t, [point_on_edge(t, "p", "q", Fraction(1, 2))])
    got = typespace._sphere_points(t, P, Fraction(3, 8), forbidden)
    assert got == [point_on_edge(t, "p", "q", Fraction(3, 8))]
    assert forbidden.covers(got[0])


def test_type_distance_exact_tripod_family():
    # criterion 7's family over all arms k r / 64, 8 <= k <= 32
    arms = [Fraction(k, 64) * R for k in range(8, 33)]
    family = {
        s: empty_context_descriptor([2 * s, 2 * s], [[0, 2 * s], [2 * s, 0]]) for s in arms
    }
    for s in arms:
        for t in arms:
            want = 2 * max(s, t) if s != t else 0
            assert type_distance_exact(family[s], family[t]) == want


def test_type_distance_exact_small_cases(tripod):
    q1 = type_of(tripod, [Y], [A], R)
    q2 = type_of(tripod, [Y], [point_on_edge(tripod, "p", "y", Fraction(1, 2))], R)
    assert type_distance_exact(q1, q2) == one_type_distance(q1.marginal(0), q2.marginal(0))
    q = type_of(tripod, [Y], [A, B, P], R)
    assert type_distance_exact(q, q) == 0
    # the unit arms against collinear offsets: the arm of b_1 must leave a_1
    # at p to keep b_2 within 1 of a_2
    q1 = empty_context_descriptor([1, 1], [[0, 2], [2, 0]])
    q2 = empty_context_descriptor([1, 2], [[0, 1], [1, 0]])
    assert type_distance_exact(q1, q2) == 2


def test_type_distance_exact_declines_n4():
    star = [[0 if i == j else 2 for j in range(4)] for i in range(4)]
    q = empty_context_descriptor([1] * 4, star)
    assert type_distance_exact(q, q) is None


def test_type_distances_refuse_two_arities(tripod):
    q1, q2 = type_of(tripod, [], [A], R), type_of(tripod, [], [A, B], R)
    for dist in (type_distance_exact, lambda a, b: type_distance_search(a, b, R / 16)):
        for a, b in ((q1, q2), (q2, q1)):
            with pytest.raises(ContextMismatchError, match="^descriptors have different arities$"):
                dist(a, b)


def test_type_distances_check_context_then_arity_then_each_descriptor(tripod):
    one, two = type_of(tripod, [], [A], R), type_of(tripod, [], [A, B], R)
    bad_one = dataclasses.replace(one, offsets=(Fraction(3),))
    bad_rho = dataclasses.replace(two, pairwise=((0, 9), (9, 0)))
    bad_offset = dataclasses.replace(two, offsets=(Fraction(3), Fraction(2)))
    other = type_of(tripod, [Y], [A, B], R)
    assert str(validate_descriptor(bad_one)) == "offset_bound: offset s_1=3 outside [0, 2]"
    assert validate_descriptor(bad_rho).kind == "four_point"
    for dist in (type_distance_exact, lambda a, b: type_distance_search(a, b, R / 16)):
        with pytest.raises(ContextMismatchError, match="^descriptors are over different contexts$"):
            dist(bad_one, other)
        # the arity is compared before either descriptor is realized
        for a, b in ((bad_one, two), (two, bad_one), (bad_one, bad_rho)):
            with pytest.raises(ContextMismatchError, match="^descriptors have different arities$"):
                dist(a, b)
        # then q1, then q2: the first invalid one is reported
        for a, b, first in ((bad_rho, bad_offset, bad_rho), (bad_offset, bad_rho, bad_offset),
                            (two, bad_rho, bad_rho)):
            with pytest.raises(InconsistentDescriptorError) as err:
                dist(a, b)
            assert err.value.violation == validate_descriptor(first)
    with pytest.raises(ContextMismatchError, match="^descriptors are over different contexts$"):
        one_type_distance(OneTypeDescriptor(one.context, R, A, Fraction(3)), other.marginal(0))


def test_type_distance_search_refuses_a_mesh_at_most_zero(tripod):
    q = type_of(tripod, [], [A, B], R)
    for mesh in (0, -1):
        with pytest.raises(ValueError, match="^mesh must be positive$"):
            type_distance_search(q, q, mesh)


def test_validate_descriptor_names_a_point_off_the_context_and_a_diagonal(tripod):
    ctx = spanned_subtree(tripod, [Y])
    zero = Fraction(0)
    off = NTypeDescriptor(ctx, R, (Y, A), (zero, zero), ((zero, 1), (1, zero)))
    assert str(validate_descriptor(off)) == "offset_bound: closest point 2 lies outside the context"
    diagonal = NTypeDescriptor(ctx, R, (Y,), (Fraction(1),), ((Fraction(1),),))
    assert str(validate_descriptor(diagonal)) == "pairwise_shape: rho_1,1 != 0"


def test_is_principal_refuses_a_closest_point_off_p():
    tree = segment(2)
    q = NTypeDescriptor(spanned_subtree(tree, []), R, (Vertex("q"),), (Fraction(0),), ((0,),))
    with pytest.raises(
        ContextMismatchError, match="^descriptor over the empty context must project to p$"
    ):
        is_principal(q)


def test_apply_context_isometry_refuses_an_image_off_the_context(tripod):
    q = type_of(tripod, [Y], [A], R)
    assert q.closest == (Y,)
    with pytest.raises(ContextMismatchError, match="^isometry image leaves the context$"):
        apply_context_isometry(q, lambda e: A)


def test_is_principal_examples():
    q = empty_context_descriptor([1, 2], [[0, 1], [1, 0]], radius=3)
    assert is_principal(q)
    tripod_type = empty_context_descriptor([2, 2], [[0, 2], [2, 0]])
    assert not is_principal(tripod_type)
    single = empty_context_descriptor([Fraction(5, 4)], [[0]])
    assert is_principal(single)


def test_is_principal_requires_empty_context(tripod):
    q = type_of(tripod, [Y], [A], R)
    with pytest.raises(ContextMismatchError):
        is_principal(q)


def test_is_principal_matches_geometric_condition():
    # the arithmetic test agrees with the piecewise-segment criterion on
    # types read off from concrete configurations
    for k, tree in enumerate(random_corpus("princ", 10, max_nodes=6)):
        rng = rng_for(("princ", k))
        pts = [random_point(rng, tree) for _ in range(rng.randint(1, 3))]
        q = type_of(tree, [], pts, R)
        ordered = sorted(pts, key=lambda x: distance(tree, Vertex(tree.basepoint), x))
        geometric = piecewise_segment_check(tree, [Vertex(tree.basepoint)] + ordered)
        assert is_principal(q) == geometric


def test_dcl_acl(tripod):
    assert dcl_acl(tripod, [P]).is_single_point()
    whole = dcl_acl(tripod, [A, B])
    assert whole.covers(Y) and whole.covers(point_on_edge(tripod, "p", "y", Fraction(1, 2)))


def test_point_outside_closure_has_two_far_realizations(tripod):
    # duplicating the branch of c at its projection creates a second
    # realization of tp(c/A) at distance exactly twice dist(c, E_A)
    c = A
    sub = dcl_acl(tripod, [B])  # spans p-y-b
    from rtrees import project_to_subtree

    e, d = project_to_subtree(tripod, sub, c)
    branch = segment(1, basepoint="r0", tip="c2")
    bigger = glue_family(
        GlueSpec(base=tripod, attachments=((branch, Vertex("r0"), e),)), R
    )
    twin = next(n for n in bigger.nodes() if n.endswith(":c2"))
    qa = type_of(bigger, [Vertex("b")], [Vertex("a")], R)
    qb = type_of(bigger, [Vertex("b")], [Vertex(twin)], R)
    assert types_equal(qa, qb)
    assert distance(bigger, Vertex("a"), Vertex(twin)) == 2 * d


def _symmetric_context(arm=Fraction(1, 2), trunk=Fraction(1)):
    """A broom: trunk p-v plus two arms of equal length at v, labeled so the
    swap of the arms is a label-respecting isometry."""
    t = TreeSkeleton(
        "p",
        [("p", "v", trunk), ("v", "m1", arm), ("v", "m2", arm)],
        labels={"m1": "m1", "m2": "m2", "v": "v"},
    )
    swap = {"m1": "m2", "m2": "m1"}

    def iso(pt):
        if isinstance(pt, Vertex):
            return Vertex(swap.get(pt.node, pt.node))
        u = swap.get(pt.u, pt.u)
        v = swap.get(pt.v, pt.v)
        from rtrees import EdgePoint, normalize_point

        return normalize_point(t, EdgePoint(u, v, pt.offset))

    return t, iso


def test_apply_context_isometry_and_canonical_base():
    t, iso = _symmetric_context()
    ctx_pts = [Vertex("m1"), Vertex("m2")]
    # a type anchored on the swap-fixed trunk is preserved
    q_fixed = NTypeDescriptor(
        context=spanned_subtree(t, ctx_pts),
        radius=R,
        closest=(Vertex("v"),),
        offsets=(Fraction(1, 4),),
        pairwise=((Fraction(0),),),
    )
    assert types_equal(q_fixed, apply_context_isometry(q_fixed, iso))
    assert canonical_base(q_fixed) == (Vertex("v"),)

    # a type anchored inside one arm moves
    e = point_on_edge(t, "v", "m1", Fraction(1, 4))
    q_moving = NTypeDescriptor(
        context=spanned_subtree(t, ctx_pts),
        radius=R,
        closest=(e,),
        offsets=(Fraction(1, 4),),
        pairwise=((Fraction(0),),),
    )
    assert not types_equal(q_moving, apply_context_isometry(q_moving, iso))


def _search_pin_text(monkeypatch):
    """``(lower, upper, truncated)`` of ``type_distance_search`` at mesh r/16
    over a seeded corpus: 2- and 3-types of one random tree over 0-1 random
    parameters, and shapes from two random trees over the empty context,
    each with and without the early stop, at budgets that do and do not cut
    the search short."""
    lines = []
    empty = spanned_subtree(TreeSkeleton("p", (), extra_nodes=["p"]), [])
    exact_distance = typespace._exact_distance
    for k in range(60):
        rng = rng_for(("search-pin", k))
        n = 2 + k % 2
        tree = random_tree(rng, max_nodes=rng.randint(2, 6), radius=R)
        if k % 3 == 2:
            pair = []
            for _ in range(2):
                t = random_tree(rng, max_nodes=rng.randint(2, 6), radius=R)
                q = type_of(t, [], [random_point(rng, t) for _ in range(n)], R)
                pair.append(NTypeDescriptor(empty, R, (Vertex("p"),) * n, q.offsets, q.pairwise))
            q1, q2 = pair
        else:
            A = [random_point(rng, tree) for _ in range(k % 3)]
            q1 = type_of(tree, A, [random_point(rng, tree) for _ in range(n)], R)
            q2 = type_of(tree, A, [random_point(rng, tree) for _ in range(n)], R)
        for early in (True, False):
            monkeypatch.setattr(
                typespace, "_exact_distance", exact_distance if early else lambda _a, _b: None
            )
            for budget in (50000, 200, 40, 4):
                got = type_distance_search(q1, q2, R / 16, max_configs=budget)
                lines.append(f"{k} {early} {budget} {got.lower} {got.upper} {got.truncated}")
    return "\n".join(lines)


# sha256 of _search_pin_text(), recorded while every placement the search
# tried was built as a tree before it was checked; 86 of its 480 results
# are truncated
SEARCH_PIN_SHA256 = "ff5fb25ed5b6d0c341b6faba481a7efec53b45c3749a7accce1af6fdfab593c8"


def test_type_distance_search_results_unchanged(monkeypatch):
    text = _search_pin_text(monkeypatch)
    assert sum(line.endswith("True") for line in text.splitlines()) == 86
    assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_PIN_SHA256
