"""Geodesic operations on tree skeletons.

Gromov products, medians, segment interpolation, spanned subtrees and
closest-point projections, all in exact rational arithmetic.  Distances and
points on arcs come from :mod:`rtrees.skeleton`.
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
    _rooted,
    distance,
    edge_key,
    normalize_point,
    point_on_segment,
    point_sort_key,
)


def gromov_product(tree: TreeSkeleton, x: PointRef, y: PointRef, w: PointRef) -> Fraction:
    """(x . y)_w = [d(x,w) + d(y,w) - d(x,y)] / 2, the distance from ``w``
    to the segment ``[x, y]``."""
    return (
        distance(tree, x, w) + distance(tree, y, w) - distance(tree, x, y)
    ) / 2


def is_between(tree: TreeSkeleton, a: PointRef, b: PointRef, c: PointRef) -> bool:
    """Whether ``b`` lies on the segment ``[a, c]`` (exact additivity test)."""
    return distance(tree, a, c) == distance(tree, a, b) + distance(tree, b, c)


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

    It sits on ``[a, b]`` at distance ``(b . c)_a`` from ``a``.
    """
    t = gromov_product(tree, b, c, a)
    return point_on_segment(tree, a, b, t)


def interpolate(tree: TreeSkeleton, x1: PointRef, x2: PointRef, s) -> PointRef:
    """The point of ``[x1, x2]`` at parameter ``s`` in [0, 1] from ``x1``."""
    s = as_rat(s)
    if s < 0 or s > 1:
        raise ValueError("interpolation parameter outside [0, 1]")
    return point_on_segment(tree, x1, x2, s * distance(tree, x1, x2))


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
    parent, num, depth, den = tree._root_data()
    rooted = [_rooted(parent, num, den, g) for g in gens]
    big = lcm(*(d for *_, d in rooted))
    pts = [(n, h * (big // d)) for n, h, d in rooted]
    scale = big // den
    n0 = pts[0][0]
    t = min(min(h, num[_common_ancestor(parent, depth, n0, n)] * scale) for n, h in pts)
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
