from fractions import Fraction

import pytest

from rtrees import (
    ContextMismatchError,
    GlueSpec,
    InconsistentDescriptorError,
    NTypeDescriptor,
    OneTypeDescriptor,
    TreeSkeleton,
    Vertex,
    apply_context_isometry,
    canonical_base,
    combined_matrix,
    dcl_acl,
    distance,
    four_point_check,
    glue_family,
    is_principal,
    one_type_distance,
    piecewise_segment_check,
    point_on_edge,
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
from conftest import random_corpus, rng_for
from rtrees.generators import random_point


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
