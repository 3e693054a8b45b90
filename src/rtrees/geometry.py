"""Geodesic operations on tree skeletons.

Gromov products, medians, segment interpolation, spanned subtrees and
closest-point projections, all in exact rational arithmetic.  Distances and
points on arcs come from :mod:`rtrees.skeleton`.  Gromov products, medians
and betweenness read their three points' root arcs once, in integers over
one denominator (:func:`_three`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .rationals import as_rat
from .skeleton import (
    PointRef,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    _at_height,
    _common_ancestor,
    _meet,
    _rooted,
    distance,
    edge_key,
    normalize_point,
    point_sort_key,
)


def _three(tree: TreeSkeleton, a: PointRef, b: PointRef, c: PointRef):
    """Normalized ``a``, ``b`` and ``c`` rooted: the nodes of ``a`` and ``b``,
    the heights of ``b`` and ``c``, then the heights ``m_ab``, ``m_ac``,
    ``m_bc`` at which their root arcs part, all as integers over the
    denominator returned last.  The points are read in the order of
    ``distance(a, b)`` followed by ``distance(a, c)``, so a fault raises as
    those calls would."""
    a = normalize_point(tree, a)
    b = normalize_point(tree, b)
    parent, num, anc, den = tree._root_data()
    na, ha, da = _rooted(parent, num, den, a)
    nb, hb, db = _rooted(parent, num, den, b)
    nc, hc, dc = _rooted(parent, num, den, normalize_point(tree, c))
    d = lcm(da, db, dc)
    ha, hb, hc, k = ha * (d // da), hb * (d // db), hc * (d // dc), d // den
    return (
        na, nb, hb, hc,
        min(ha, hb, num[_common_ancestor(parent, anc, na, nb)] * k),
        min(ha, hc, num[_common_ancestor(parent, anc, na, nc)] * k),
        min(hb, hc, num[_common_ancestor(parent, anc, nb, nc)] * k),
        d,
    )


def gromov_product(tree: TreeSkeleton, x: PointRef, y: PointRef, w: PointRef) -> Fraction:
    """(x . y)_w = [d(x,w) + d(y,w) - d(x,y)] / 2, the distance from ``w``
    to the segment ``[x, y]``."""
    _, _, hw, _hy, m_xw, m_xy, m_wy, d = _three(tree, x, w, y)
    return Fraction(hw - m_xw - m_wy + m_xy, d)


def is_between(tree: TreeSkeleton, a: PointRef, b: PointRef, c: PointRef) -> bool:
    """Whether ``b`` lies on the segment ``[a, c]``: ``(a . c)_b = 0``."""
    _, _, _hc, hb, m_ac, m_ab, m_cb, _d = _three(tree, a, c, b)
    return hb - m_ab - m_cb + m_ac == 0


def piecewise_segment_check(tree: TreeSkeleton, points: Sequence[PointRef]) -> bool:
    """Whether the points lie in order along the segment from first to last."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    total = sum(
        (distance(tree, points[i], points[i + 1]) for i in range(len(points) - 1)),
        Fraction(0),
    )
    return distance(tree, points[0], points[-1]) == total


def median(tree: TreeSkeleton, a: PointRef, b: PointRef, c: PointRef) -> PointRef:
    """The unique common point of the three pairwise segments.

    It sits on ``[a, b]`` at distance ``t = (b . c)_a`` from ``a``: on the
    root arc of ``a`` at height ``h_a - t = m_ab + m_ac - m_bc`` if that is
    at least ``m_ab``, else on the root arc of ``b`` at height ``m_ab +
    m_bc - m_ac``.
    """
    nb, na, _ha, _hc, m_ab, m_bc, m_ac, d = _three(tree, b, a, c)
    if m_bc <= m_ac:
        return _at_height(tree, na, m_ab + m_ac - m_bc, d)
    return _at_height(tree, nb, m_ab + m_bc - m_ac, d)


def interpolate(tree: TreeSkeleton, x1: PointRef, x2: PointRef, s) -> PointRef:
    """The point of ``[x1, x2]`` at parameter ``s`` in [0, 1] from ``x1``."""
    s = as_rat(s)
    if s < 0 or s > 1:
        raise ValueError("interpolation parameter outside [0, 1]")
    n1, h1, n2, h2, m, d = _meet(tree, normalize_point(tree, x1), normalize_point(tree, x2))
    # the distance from x1, s * (h1 + h2 - 2m), as an integer over d * sd
    sn, sd = s.numerator, s.denominator
    t = sn * (h1 + h2 - 2 * m)
    if t <= (h1 - m) * sd:
        return _at_height(tree, n1, h1 * sd - t, d * sd)
    return _at_height(tree, n2, (2 * m - h1) * sd + t, d * sd)


def dist_to_center_ball(tree: TreeSkeleton, x: PointRef, s) -> Fraction:
    """Exact distance from ``x`` to the closed ball of radius ``s`` around
    the basepoint: ``max(d(x, p) - s, 0)``."""
    s = as_rat(s)
    if s < 0:
        raise ValueError("ball radius must be non-negative")
    d = distance(tree, x, Vertex(tree.basepoint))
    return d - s if d > s else Fraction(0)


def endpoints(tree: TreeSkeleton) -> tuple[PointRef, ...]:
    """All degree <= 1 vertices; the unique smallest spanning set."""
    return tuple(
        Vertex(n) for n in tree.nodes() if tree.degree(n) <= 1
    )


# -- spanned subtrees -----------------------------------------------------------


@dataclass(frozen=True)
class SpannedSubtree:
    """The smallest subtree of ``ambient`` containing the generator points.

    It is the union of the generators' root arcs above its top, the lowest
    height at which two of those arcs part.  ``vertex_cover`` holds the
    ambient vertices it contains and ``edge_cover`` the one offset interval
    ``((lo, hi),)`` it covers on each canonical edge it meets in more than
    an endpoint (the span of one edge point covers ``((o, o),)``); they
    back exact membership tests and closest-point projections.
    """

    ambient: TreeSkeleton
    generators: tuple[PointRef, ...]
    vertex_cover: frozenset[str]
    edge_cover: dict[tuple[str, str], tuple[tuple[Fraction, Fraction]]]

    def __eq__(self, other: object) -> bool:
        # equality as point sets of a common ambient tree
        if not isinstance(other, SpannedSubtree):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.vertex_cover == other.vertex_cover
            and self.edge_cover == other.edge_cover
        )

    def covers(self, pt: PointRef) -> bool:
        pt = normalize_point(self.ambient, pt)
        if isinstance(pt, Vertex):
            return pt.node in self.vertex_cover
        cover = self.edge_cover.get((pt.u, pt.v))
        return cover is not None and cover[0][0] <= pt.offset <= cover[0][1]

    def is_single_point(self) -> bool:
        return len(self.generators) == 1


def _span_top(tree: TreeSkeleton, gens: Sequence[PointRef]):
    """The generators as rooted ``(node, h)`` pairs over one denominator
    ``E``, then the height ``t`` of the span's top over ``E``, then ``E``.
    The top lies on the root arc of the first generator."""
    parent, num, anc, den = tree._root_data()
    rooted = [_rooted(parent, num, den, g) for g in gens]
    big = lcm(*(d for *_, d in rooted))
    pts = [(n, h * (big // d)) for n, h, d in rooted]
    scale = big // den
    n0 = pts[0][0]
    t = min(min(h, num[_common_ancestor(parent, anc, n0, n)] * scale) for n, h in pts)
    return pts, t, big


def spanned_subtree(
    tree: TreeSkeleton,
    points: Iterable[PointRef],
    adjoin_basepoint: bool = True,
) -> SpannedSubtree:
    """The subtree spanned by ``points`` (basepoint adjoined unless
    ``adjoin_basepoint`` is false and the set is nonempty).

    Walks each generator up its root arc to the top of the span, stopping
    early at a vertex an earlier walk covered.  Every walk through an edge
    leaves it at the same height, so an edge's interval runs from there to
    the highest entry.  A generator outside the basepoint's component
    raises :class:`SkeletonError`.
    """
    parent, num, _, den = tree._root_data()  # refuses a skeleton with a cycle
    gens = [normalize_point(tree, pt) for pt in points]
    if adjoin_basepoint:
        gens.append(Vertex(tree.basepoint))
    if not gens:
        raise ValueError("cannot span the empty set")
    gens = sorted(set(gens), key=point_sort_key)

    pts, t, big = _span_top(tree, gens)
    scale = big // den
    vertices: set[str] = set()
    entry: dict[str, int] = {}  # lower node of a covered edge -> highest entry
    for node, h in pts:
        while True:
            if h == num[node] * scale:
                if node in vertices:
                    break
                vertices.add(node)
                if h == t:
                    break
            if h > entry.get(node, -1):
                entry[node] = h
            low = num[parent[node]] * scale
            if t > low:
                break
            node, h = parent[node], low

    edge_cover: dict[tuple[str, str], tuple[tuple[Fraction, Fraction]]] = {}
    for node, hi in entry.items():
        up = parent[node]
        low = num[up] * scale
        lo = max(t, low)
        if up < node:
            edge_cover[(up, node)] = ((Fraction(lo - low, big), Fraction(hi - low, big)),)
        else:
            high = num[node] * scale
            edge_cover[(node, up)] = ((Fraction(high - hi, big), Fraction(high - lo, big)),)
    return SpannedSubtree(
        ambient=tree,
        generators=tuple(gens),
        vertex_cover=frozenset(vertices),
        edge_cover=edge_cover,
    )


def project_to_subtree(
    tree: TreeSkeleton, sub: SpannedSubtree, a: PointRef
) -> tuple[PointRef, Fraction]:
    """The unique closest point of ``sub`` to ``a`` and its distance.

    Walks up the arc from ``a`` to the basepoint and stops at the first
    covered point.  A subtree built without the basepoint may miss that
    arc; then the answer is the subtree's top, its point nearest the
    basepoint, where the root arcs of its generators first part.
    """
    if sub.ambient is not tree and sub.ambient != tree:
        raise SkeletonError("subtree belongs to a different ambient skeleton")
    a = normalize_point(tree, a)
    if sub.covers(a):
        return a, Fraction(0)
    parent, num, _, den = tree._root_data()
    node, h, hd = _rooted(parent, num, den, a)
    at = Fraction(h, hd)
    while parent[node] is not None:
        up = parent[node]
        cover = sub.edge_cover.get(edge_key(up, node))
        if cover is not None:
            # the highest covered height on this edge; below ``a``, which is
            # not covered, unless the span's top lies above ``a`` on this edge
            ((lo, hi),) = cover
            end = Fraction(num[up], den) + hi if up < node else Fraction(num[node], den) - lo
            if end < at:
                return _at_height(tree, node, end.numerator, end.denominator), at - end
        if up in sub.vertex_cover:
            return Vertex(up), at - Fraction(num[up], den)
        node = up
    pts, t, big = _span_top(tree, sub.generators)
    top = _at_height(tree, pts[0][0], t, big)
    return top, distance(tree, a, top)
