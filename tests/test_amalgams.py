from fractions import Fraction

import pytest

from rtrees import (
    EdgePoint,
    GlueSpec,
    MalformedSpecError,
    NotIsometricError,
    RadiusExceededError,
    SubtreeMap,
    TreeSkeleton,
    Vertex,
    amalgamate,
    distance,
    glue_family,
    point_on_edge,
    project_to_subtree,
    segment,
    spanned_subtree,
    star_amalgam,
    tripod,
    validate,
)
from conftest import rng_for
from rtrees.generators import random_point


R = Fraction(2)


def test_glue_segment_at_center(tripod):
    arm = segment(1, basepoint="s0", tip="c")
    glued = glue_family(
        GlueSpec(base=tripod, attachments=((arm, Vertex("s0"), Vertex("y")),)), R
    )
    c = next(n for n in glued.nodes() if n.endswith(":c"))
    assert distance(glued, Vertex("p"), Vertex(c)) == 2
    assert distance(glued, Vertex("a"), Vertex(c)) == 2
    assert validate(glued, R).ok


def test_glue_nothing_leaves_base(tripod):
    glued = glue_family(GlueSpec(base=tripod, attachments=()), R)
    assert glued == tripod
    # a single-point attachment also changes nothing metrically
    dot = TreeSkeleton("z", (), extra_nodes=["z"])
    glued2 = glue_family(
        GlueSpec(base=tripod, attachments=((dot, Vertex("z"), point_on_edge(tripod, "p", "y", Fraction(1, 2))),)),
        R,
    )
    assert glued2 == tripod


def test_glue_cross_distance(tripod):
    s1 = segment(Fraction(1, 2), basepoint="u0", tip="c1")
    s2 = segment(Fraction(1, 2), basepoint="u0", tip="c2")
    glued = glue_family(
        GlueSpec(
            base=tripod,
            attachments=(
                (s1, Vertex("u0"), Vertex("a")),
                (s2, Vertex("u0"), Vertex("b")),
            ),
        ),
        Fraction(5, 2),
    )
    c1 = next(n for n in glued.nodes() if n.startswith("g0"))
    c2 = next(n for n in glued.nodes() if n.startswith("g1"))
    # len1 + d(a, b) + len2
    assert distance(glued, Vertex(c1), Vertex(c2)) == Fraction(1, 2) + 2 + Fraction(1, 2)


def test_glue_radius_precondition(tripod):
    long_arm = segment(Fraction(3, 2), basepoint="s0", tip="c")
    with pytest.raises(RadiusExceededError):
        glue_family(
            GlueSpec(base=tripod, attachments=((long_arm, Vertex("s0"), Vertex("a")),)),
            R,
        )


def test_glue_radius_error_names_a_node_of_the_factor():
    # anchored inside its edge, the factor's nearer end p lands at 3 + 1/2
    half = EdgePoint("p", "q", Fraction(1, 2))
    with pytest.raises(RadiusExceededError) as err:
        glue_family(GlueSpec(base=segment(3), attachments=((segment(1), half, Vertex("q")),)), R)
    assert str(err.value) == "point p would sit at distance 7/2 > 2 from the basepoint"


def test_glue_on_a_disconnected_base_is_malformed():
    base = TreeSkeleton("p", [("p", "y", 1), ("y", "a", 1), ("u", "w", 1)])
    arm = segment(Fraction(1, 2))
    for attachments in ((), ((arm, Vertex("p"), Vertex("y")),)):
        with pytest.raises(MalformedSpecError) as err:
            glue_family(GlueSpec(base=base, attachments=attachments), R)
        assert str(err.value) == (
            "glued tree invalid: disconnected: nodes unreachable from basepoint: u, w"
        )


def test_amalgamate_with_a_cyclic_left_factor_is_malformed():
    cyclic = TreeSkeleton("p", [("p", "y", 1), ("y", "a", 1), ("y", "b", 1), ("a", "b", 1)])
    t = tripod(1, 1, 1)
    with pytest.raises(MalformedSpecError) as err:
        amalgamate(cyclic, t, SubtreeMap(source=cyclic, target=t, pairs=()), R)
    assert str(err.value) == "amalgam invalid: extra adjacency at left:b-left:a"


def test_star_amalgam():
    two = star_amalgam([segment(R), segment(R)], R)
    assert validate(two, R).ok
    tips = [n for n in two.nodes() if n != "p"]
    assert distance(two, Vertex(tips[0]), Vertex(tips[1])) == 2 * R

    one = star_amalgam([tripod(1, 1, 1)], R)
    assert one.total_length() == 3

    three = star_amalgam([tripod(1, 1, 1)] * 3, R)
    assert three.degree("p") == 3


def test_amalgamate_two_tripods_over_trunk():
    t1, t2 = tripod(1, 1, 1), tripod(1, 1, 1)
    shared = SubtreeMap(
        source=t1,
        target=t2,
        pairs=((Vertex("p"), Vertex("p")), (Vertex("y"), Vertex("y"))),
    )
    amalgam, g1, g2 = amalgamate(t1, t2, shared, R)
    assert validate(amalgam, R).ok
    m1 = dict(g1.pairs)
    m2 = dict(g2.pairs)
    # four leaves beyond the shared trunk
    leaves = [n for n in amalgam.nodes() if amalgam.degree(n) == 1 and n != amalgam.basepoint]
    assert len(leaves) == 4
    assert distance(amalgam, m1[Vertex("a")], m2[Vertex("a")]) == 2
    # shared subtree identified: commutation on the shared pairs
    assert m1[Vertex("p")] == m2[Vertex("p")]
    assert m1[Vertex("y")] == m2[Vertex("y")]


def test_amalgamate_self_over_everything():
    t = tripod(1, 1, 1)
    shared = SubtreeMap(
        source=t, target=t, pairs=tuple((Vertex(n), Vertex(n)) for n in t.nodes())
    )
    amalgam, g1, g2 = amalgamate(t, t, shared, R)
    # pushout over the identity: nothing new appears
    assert len(amalgam.nodes()) == len(t.nodes())
    assert dict(g1.pairs) == dict(g2.pairs)


def test_amalgamate_over_basepoint_equals_star():
    t1, t2 = segment(R, tip="q1"), segment(R, tip="q2")
    shared = SubtreeMap(source=t1, target=t2, pairs=((Vertex("p"), Vertex("p")),))
    amalgam, g1, g2 = amalgamate(t1, t2, shared, R)
    a = dict(g1.pairs)[Vertex("q1")]
    b = dict(g2.pairs)[Vertex("q2")]
    assert distance(amalgam, a, b) == 2 * R  # path of length 2r through p


def test_amalgamate_rejects_distorted_map():
    t1, t2 = segment(2), segment(1)
    shared = SubtreeMap(
        source=t1, target=t2, pairs=((Vertex("p"), Vertex("p")), (Vertex("q"), Vertex("q")))
    )
    with pytest.raises(NotIsometricError):
        amalgamate(t1, t2, shared, R)


def _random_amalgam(seed):
    rng = rng_for(seed)
    from rtrees import random_tree

    raw = random_tree(rng, max_nodes=5, radius=Fraction(1))
    # labels keep every shared vertex addressable after gluing
    base = TreeSkeleton(
        raw.basepoint,
        raw.edges(),
        labels={n: n for n in raw.nodes()},
        extra_nodes=raw.nodes(),
    )
    pieces = []
    for side in range(2):
        attachments = []
        for _ in range(rng.randint(1, 2)):
            at = random_point(rng, base)
            budget = Fraction(2) - distance(base, Vertex("p"), at)
            if budget <= 0:
                continue
            arm = segment(budget * Fraction(rng.randint(1, 3), 4), basepoint="u0",
                          tip=f"c{side}")
            attachments.append((arm, Vertex("u0"), at))
        pieces.append(
            glue_family(GlueSpec(base=base, attachments=tuple(attachments)), R)
        )
    m1, m2 = pieces
    shared_pts = [Vertex(n) for n in base.nodes()]
    shared = SubtreeMap(
        source=m1,
        target=m2,
        pairs=tuple((pt, pt) for pt in shared_pts),
    )
    return base, m1, m2, shared


def test_amalgamate_soundness_random():
    for k in range(10):
        base, m1, m2, shared = _random_amalgam(("amalg", k))
        amalgam, g1, g2 = amalgamate(m1, m2, shared, R)
        assert validate(amalgam, R).ok
        f1, f2 = dict(g1.pairs), dict(g2.pairs)
        # embeddings preserve all vertex distances
        for src, mapping, tree in ((m1, f1, m1), (m2, f2, m2)):
            nodes = tree.nodes()
            for i, u in enumerate(nodes):
                for v in nodes[i + 1:]:
                    assert distance(amalgam, mapping[Vertex(u)], mapping[Vertex(v)]) == tree.vertex_distance(u, v)
        # commutation on the shared subtree
        for a_pt, b_pt in shared.pairs:
            assert f1[a_pt] == f2[b_pt]
        # cross-distance law through the shared subtree
        s1 = spanned_subtree(m1, [a for a, _ in shared.pairs])
        s2 = spanned_subtree(m2, [b for _, b in shared.pairs])
        for u in m1.nodes():
            if s1.covers(Vertex(u)):
                continue
            for v in m2.nodes():
                if s2.covers(Vertex(v)):
                    continue
                e_u, d_u = project_to_subtree(m1, s1, Vertex(u))
                e_v, d_v = project_to_subtree(m2, s2, Vertex(v))
                mid = distance(m1, e_u, shared.inverse().map_point(e_v))
                got = distance(amalgam, f1[Vertex(u)], f2[Vertex(v)])
                assert got == d_u + mid + d_v
