import dataclasses
from fractions import Fraction

import pytest

from rtrees import (
    ContextMismatchError,
    GlueSpec,
    IndependenceQuery,
    Vertex,
    canonical_base,
    distance,
    extend_nonforking,
    glue_family,
    is_nonforking_extension,
    is_star_independent,
    point_on_edge,
    realize_type,
    restrict_descriptor,
    segment,
    spanned_subtree,
    transfer_point,
    type_of,
    types_equal,
    types_equal_transferred,
)
from conftest import random_corpus, rng_for
from rtrees.generators import random_point


R = Fraction(2)
P, Y, A, B = Vertex("p"), Vertex("y"), Vertex("a"), Vertex("b")


def test_examples(tripod):
    verdict = is_star_independent(
        IndependenceQuery(tree=tripod, A=(B,), B=(A,), C=())
    )
    assert not verdict.independent
    a, big, small = verdict.witness
    assert (a, big, small) == (B, Y, P)

    assert is_star_independent(
        IndependenceQuery(tree=tripod, A=(A,), B=(B,), C=(Y,))
    ).independent

    # subsets of the closure are always independent
    m = point_on_edge(tripod, "p", "y", Fraction(1, 2))
    assert is_star_independent(
        IndependenceQuery(tree=tripod, A=(m,), B=(A, B), C=(Y,))
    ).independent


def _random_query(seed, tree):
    rng = rng_for(seed)
    def pts(k):
        return tuple(random_point(rng, tree) for _ in range(k))
    return IndependenceQuery(
        tree=tree, A=pts(rng.randint(1, 2)), B=pts(rng.randint(1, 2)), C=pts(rng.randint(0, 2))
    )


def _glued_corpus(count):
    trees = []
    for k, base in enumerate(random_corpus(("indep-base", count), count, max_nodes=5)):
        rng = rng_for(("indep-glue", k))
        attachments = []
        for _ in range(rng.randint(0, 2)):
            at = random_point(rng, base)
            budget = R - distance(base, Vertex(base.basepoint), at)
            if budget <= 0:
                continue
            arm = segment(budget / 2, basepoint="u0", tip="w")
            attachments.append((arm, Vertex("u0"), at))
        trees.append(glue_family(GlueSpec(base=base, attachments=tuple(attachments)), R))
    return trees


def test_symmetry():
    for k, tree in enumerate(_glued_corpus(8)):
        q = _random_query(("sym", k), tree)
        forward = is_star_independent(q).independent
        backward = is_star_independent(
            IndependenceQuery(tree=tree, A=q.B, B=q.A, C=q.C)
        ).independent
        assert forward == backward


def test_transitivity():
    for k, tree in enumerate(_glued_corpus(8)):
        rng = rng_for(("trans", k))
        def pts(n):
            return tuple(random_point(rng, tree) for _ in range(n))
        A, B, C, D = pts(1), pts(1), pts(1), pts(1)
        lhs = is_star_independent(
            IndependenceQuery(tree=tree, A=A, B=B + D, C=C)
        ).independent
        rhs = (
            is_star_independent(IndependenceQuery(tree=tree, A=A, B=B, C=C)).independent
            and is_star_independent(
                IndependenceQuery(tree=tree, A=A, B=D, C=B + C)
            ).independent
        )
        assert lhs == rhs


def test_finite_character():
    for k, tree in enumerate(_glued_corpus(6)):
        q = _random_query(("finchar", k), tree)
        whole = is_star_independent(q).independent
        singles = all(
            is_star_independent(
                IndependenceQuery(tree=tree, A=(a,), B=q.B, C=q.C)
            ).independent
            for a in q.A
        )
        assert whole == singles


def test_monotone_distances():
    from rtrees import project_to_subtree

    for k, tree in enumerate(_glued_corpus(6)):
        q = _random_query(("mono", k), tree)
        e_c = spanned_subtree(tree, q.C)
        e_bc = spanned_subtree(tree, q.B + q.C)
        for a in q.A:
            _, d_c = project_to_subtree(tree, e_c, a)
            _, d_bc = project_to_subtree(tree, e_bc, a)
            assert d_bc <= d_c
            single = is_star_independent(
                IndependenceQuery(tree=tree, A=(a,), B=q.B, C=q.C)
            ).independent
            assert single == (d_bc == d_c)


def test_extend_nonforking_example(tripod):
    q = type_of(tripod, [], [A], R)  # e = p, s = 2 over the basepoint alone
    ext = extend_nonforking(tripod, q, [Y])
    assert ext.closest == q.closest and ext.offsets == q.offsets
    assert is_nonforking_extension(q, ext)
    # realizations of the extension still project to p
    tree2, pts = realize_type(tripod, ext)
    q_back = type_of(tree2, [transfer_point(tree2, Y)], pts, R)
    assert types_equal_transferred(ext, q_back)


def test_extension_then_restriction_round_trip(tripod):
    q = type_of(tripod, [], [A], R)
    ext = extend_nonforking(tripod, q, [Y])
    back = restrict_descriptor(ext, [])
    assert types_equal(q, back)


def test_extend_unchanged_when_B_inside_closure(tripod):
    q = type_of(tripod, [Y], [A], R)
    m = point_on_edge(tripod, "p", "y", Fraction(1, 2))
    ext = extend_nonforking(tripod, q, [m])
    assert ext.closest == q.closest and ext.offsets == q.offsets
    assert ext.context == q.context  # the span did not grow


def test_forking_extension_detected(tripod):
    q_small = type_of(tripod, [], [B], R)
    q_big = type_of(tripod, [A], [B], R)  # closest point y leaves {p}
    assert not is_nonforking_extension(q_small, q_big)
    perturbed = extend_nonforking(tripod, q_small, [A])
    bad = type_of(tripod, [A], [point_on_edge(tripod, "y", "b", Fraction(1, 2))], R)
    assert not is_nonforking_extension(q_small, bad)
    assert is_nonforking_extension(q_small, perturbed)


def test_nonforking_extension_refuses_other_ambients_and_unnested_contexts(tripod):
    q_small = type_of(tripod, [], [B], R)
    q_big = type_of(tripod, [A], [B], R)
    # a different radius or arity is not an extension
    assert not is_nonforking_extension(q_small, dataclasses.replace(q_big, radius=R + 1))
    assert not is_nonforking_extension(q_small, type_of(tripod, [A], [B, B], R))
    with pytest.raises(ContextMismatchError, match="^contexts are not nested$"):
        is_nonforking_extension(q_big, q_small)
    other = type_of(segment(2), [], [Vertex("q")], R)
    with pytest.raises(ContextMismatchError, match="^descriptors live in different ambient trees$"):
        is_nonforking_extension(q_small, other)


def test_stationarity_finite_form(tripod):
    # two realizations of the same type over A, both independent from B
    # over A, have equal types over A + B
    q = type_of(tripod, [], [A], R)
    tree1, pts1 = realize_type(tripod, q)
    ctx1 = spanned_subtree(tree1, [])
    from rtrees import NTypeDescriptor

    q1 = NTypeDescriptor(
        context=ctx1, radius=R, closest=q.closest, offsets=q.offsets, pairwise=q.pairwise
    )
    tree2, pts2 = realize_type(tree1, q1)
    b1 = transfer_point(tree2, pts1[0])
    b2 = pts2[0]
    B_set = [transfer_point(tree2, A)]
    for b in (b1, b2):
        assert is_star_independent(
            IndependenceQuery(tree=tree2, A=(b,), B=tuple(B_set), C=())
        ).independent
    t1 = type_of(tree2, B_set, [b1], R)
    t2 = type_of(tree2, B_set, [b2], R)
    assert types_equal(t1, t2)


def test_canonical_base(tripod):
    q = type_of(tripod, [Y], [A, B], R)
    assert canonical_base(q) == (Y,)
    q0 = type_of(tripod, [A, B], [Y, point_on_edge(tripod, "p", "y", Fraction(1, 2))], R)
    # realized inside the closure: the points themselves
    assert set(canonical_base(q0)) == {Y, point_on_edge(tripod, "p", "y", Fraction(1, 2))}
