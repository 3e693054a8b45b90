"""Geodesic operations on tree skeletons.

Gromov products, medians, segment interpolation, spanned subtrees and
closest-point projections, all in exact rational arithmetic.  Distances and
points on arcs come from :mod:`rtrees.skeleton`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .rationals import as_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    _at_height,
    _meet,
    _rooted,
    canonicalize,
    distance,
    edge_key,
    materialize,
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


@dataclass
class SpannedSubtree:
    """The smallest subtree of ``ambient`` containing the generator points.

    ``realized`` is the subtree as its own skeleton; ``to_ambient`` maps its
    nodes to ambient points.  Coverage data (which ambient vertices and edge
    intervals belong to the subtree) backs exact membership tests and
    closest-point projections.
    """

    ambient: TreeSkeleton
    generators: tuple[PointRef, ...]
    realized: TreeSkeleton
    to_ambient: dict[str, PointRef]
    vertex_cover: frozenset[str]
    edge_cover: dict[tuple[str, str], tuple[tuple[Fraction, Fraction], ...]]

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
        for lo, hi in self.edge_cover.get((pt.u, pt.v), ()):
            if lo <= pt.offset <= hi:
                return True
        return False

    def is_single_point(self) -> bool:
        return not self.realized.edges()


def spanned_subtree(
    tree: TreeSkeleton,
    points: Iterable[PointRef],
    adjoin_basepoint: bool = True,
) -> SpannedSubtree:
    """Build the subtree spanned by ``points`` (basepoint adjoined unless
    ``adjoin_basepoint`` is false and the set is nonempty)."""
    gens = [normalize_point(tree, pt) for pt in points]
    if adjoin_basepoint:
        gens.append(Vertex(tree.basepoint))
    if not gens:
        raise ValueError("cannot span the empty set")
    gens = sorted(set(gens), key=point_sort_key)

    mat = materialize(tree, gens, prefix="sp")
    work = mat.tree
    keep = {mat.node_for(pt) for pt in gens}

    # prune leaves outside the generator set
    adj = {u: dict(nbrs) for u, nbrs in work._adj.items()}
    changed = True
    while changed:
        changed = False
        for node in sorted(adj):
            if node in keep or len(adj[node]) > 1:
                continue
            for nbr in list(adj[node]):
                del adj[nbr][node]
            del adj[node]
            changed = True

    surviving_edges = [
        (u, v, w) for u, nbrs in adj.items() for v, w in nbrs.items() if u < v
    ]
    vertex_cover = frozenset(
        n for n in adj if isinstance(mat.to_source[n], Vertex)
    )

    intervals: dict[tuple[str, str], list[tuple[Fraction, Fraction]]] = {}
    for u, v, _ in surviving_edges:
        src_key, off_u, off_v = mat.spans[(u, v)]
        lo, hi = (off_u, off_v) if off_u <= off_v else (off_v, off_u)
        intervals.setdefault(src_key, []).append((lo, hi))
    for n, nbrs in adj.items():
        src = mat.to_source[n]
        if not nbrs and isinstance(src, EdgePoint):
            # a lone edge-interior point spans itself
            intervals.setdefault((src.u, src.v), []).append((src.offset, src.offset))
    edge_cover: dict[tuple[str, str], tuple[tuple[Fraction, Fraction], ...]] = {}
    for key, ivals in intervals.items():
        ivals.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in ivals:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
            else:
                merged.append((lo, hi))
        edge_cover[key] = tuple(merged)

    # the realized skeleton keeps generators, junctions and labeled nodes
    sub_nodes = set(adj)
    base = tree.basepoint if tree.basepoint in sub_nodes else None
    if base is None:
        # basepoint not part of the span (adjoin_basepoint=False); root the
        # realized skeleton at the generator closest to it for determinism
        base_pt = min(gens, key=point_sort_key)
        base = mat.node_for(base_pt)
    labels = {n: work.labels[n] for n in sub_nodes if n in work.labels}
    realized = TreeSkeleton(
        base,
        surviving_edges,
        labels=labels,
        extra_nodes=sorted(sub_nodes),
    )
    realized = canonicalize(realized, keep=keep)
    to_ambient = {n: mat.to_source[n] for n in realized.nodes()}
    return SpannedSubtree(
        ambient=tree,
        generators=tuple(gens),
        realized=realized,
        to_ambient=to_ambient,
        vertex_cover=vertex_cover,
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
    parent, dist, _ = tree._root_data()
    node, h = _rooted(parent, dist, a)
    h_a = h
    while parent[node] is not None:
        up = parent[node]
        # the highest covered point at height <= h on the edge up to ``up``
        best: Optional[Fraction] = None
        key = edge_key(up, node)
        for lo, hi in sub.edge_cover.get(key, ()):
            if key[0] == up:
                lo, hi = dist[up] + lo, dist[up] + hi
            else:
                lo, hi = dist[node] - hi, dist[node] - lo
            if lo <= h and (best is None or min(hi, h) > best):
                best = min(hi, h)
        if best is not None:
            return _at_height(tree, node, best), h_a - best
        if up in sub.vertex_cover:
            return Vertex(up), h_a - dist[up]
        node, h = up, dist[up]
    meets = [_meet(tree, sub.generators[0], g) for g in sub.generators]
    top = _at_height(tree, meets[0][0], min(m for *_, m in meets))
    return top, distance(tree, a, top)
