"""Edge-weighted combinatorial skeletons of pointed real trees.

A :class:`TreeSkeleton` is a finite connected acyclic graph with strictly
positive rational edge lengths and a distinguished basepoint.  It induces a
finitely spanned pointed real tree: the points of that tree are the vertices
plus the interiors of the edges, addressed by :class:`PointRef` values.

Distances and points on arcs are computed in a rooted form: a point is the
pair ``(node, height)``, its distance from the basepoint on the arc from
``node`` up to its parent.  One common-ancestor loop gives the height at
which two root arcs part, and one ancestor walk finds the point at a given
height.

All values are immutable after construction and every operation here is a
pure function, so skeletons are safe to share across threads.  Internal
caches (shortest-path data, directional reach tables) are computed at most
once per skeleton and only ever appended, never mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .rationals import as_rat, format_rat


class SkeletonError(ValueError):
    """Malformed skeleton data (unknown node, duplicate edge, bad offset)."""


class UnknownPointError(SkeletonError):
    """A PointRef does not address a point of the given skeleton."""


@dataclass(frozen=True)
class Vertex:
    """A point that coincides with a named node."""

    node: str


@dataclass(frozen=True)
class EdgePoint:
    """A strictly interior point of the edge ``{u, v}``.

    The offset is measured from ``u`` and the pair ``(u, v)`` is kept in
    canonical orientation (``u < v``); :func:`normalize_point` converts any
    admissible description into this form so that equal metric points
    compare equal.
    """

    u: str
    v: str
    offset: Fraction


PointRef = Union[Vertex, EdgePoint]


def point_sort_key(pt: PointRef):
    if isinstance(pt, Vertex):
        return (0, pt.node, "", Fraction(0))
    return (1, pt.u, pt.v, pt.offset)


def format_point(pt: PointRef) -> str:
    if isinstance(pt, Vertex):
        return pt.node
    return f"{pt.u}~{pt.v}@{format_rat(pt.offset)}"


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with a witness suitable for error reports."""

    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    max_distance: Optional[Fraction]

    def __str__(self) -> str:
        if self.ok:
            return f"ok (max distance from basepoint: {format_rat(self.max_distance)})"
        return "; ".join(f"{v.kind}: {v.detail}" for v in self.violations)


class TreeSkeleton:
    """Finite edge-weighted tree with basepoint and optional node labels.

    ``edges`` is an iterable of ``(u, v, length)`` triples; lengths may be
    anything :func:`rtrees.rationals.as_rat` accepts.  Labels map node ids to
    one or more display names.  Construction rejects structurally nonsensical
    input (self-loops, duplicated edges); graph-level invariants such as
    acyclicity and the radius bound are checked by :func:`validate`, which
    reports witnesses instead of raising.
    """

    def __init__(
        self,
        basepoint: str,
        edges: Iterable[tuple[str, str, object]] = (),
        labels: Optional[Mapping[str, object]] = None,
        extra_nodes: Iterable[str] = (),
    ) -> None:
        adj: dict[str, dict[str, Fraction]] = {}

        def ensure(node: str) -> None:
            if not isinstance(node, str) or not node or any(c.isspace() for c in node):
                raise SkeletonError(f"bad node id: {node!r}")
            adj.setdefault(node, {})

        ensure(basepoint)
        for node in extra_nodes:
            ensure(node)
        for u, v, length in edges:
            ensure(u)
            ensure(v)
            if u == v:
                raise SkeletonError(f"self-loop at {u}")
            if v in adj[u]:
                raise SkeletonError(f"duplicate edge {u}-{v}")
            w = as_rat(length)  # may be non-positive; validate() reports it
            adj[u][v] = w
            adj[v][u] = w

        label_map: dict[str, tuple[str, ...]] = {}
        for node, names in (labels or {}).items():
            if node not in adj:
                raise SkeletonError(f"label on unknown node {node!r}")
            if isinstance(names, str):
                names = (names,)
            label_map[node] = tuple(sorted(names))

        self._adj = adj
        self.basepoint = basepoint
        self.labels = label_map
        self._cache: dict[str, object] = {}

    # -- basic accessors ---------------------------------------------------

    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._adj))

    def edges(self) -> tuple[tuple[str, str, Fraction], ...]:
        out = []
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u < v:
                    out.append((u, v, w))
        return tuple(sorted(out))

    def has_node(self, node: str) -> bool:
        return node in self._adj

    def neighbors(self, node: str) -> tuple[str, ...]:
        try:
            return tuple(sorted(self._adj[node]))
        except KeyError:
            raise UnknownPointError(f"unknown node {node!r}") from None

    def degree(self, node: str) -> int:
        return len(self._adj[node])

    def edge_length(self, u: str, v: str) -> Fraction:
        try:
            return self._adj[u][v]
        except KeyError:
            raise UnknownPointError(f"no edge {u}-{v}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return u in self._adj and v in self._adj[u]

    def labels_of(self, node: str) -> tuple[str, ...]:
        return self.labels.get(node, ())

    def find_label(self, name: str) -> Optional[str]:
        for node in sorted(self.labels):
            if name in self.labels[node]:
                return node
        return None

    def total_length(self) -> Fraction:
        return sum((w for _, _, w in self.edges()), Fraction(0))

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeSkeleton):
            return NotImplemented
        return (
            self.basepoint == other.basepoint
            and self.edges() == other.edges()
            and self.nodes() == other.nodes()
            and self.labels == other.labels
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"TreeSkeleton(basepoint={self.basepoint!r}, "
            f"nodes={len(self._adj)}, edges={sum(len(n) for n in self._adj.values()) // 2})"
        )

    # -- rooted path data (cached) ------------------------------------------

    def _root_data(self):
        data = self._cache.get("root")
        if data is None:
            parent: dict[str, Optional[str]] = {self.basepoint: None}
            dist: dict[str, Fraction] = {self.basepoint: Fraction(0)}
            depth: dict[str, int] = {self.basepoint: 0}
            stack = [self.basepoint]
            while stack:
                cur = stack.pop()
                for nbr, w in self._adj[cur].items():
                    if nbr not in parent:
                        parent[nbr] = cur
                        dist[nbr] = dist[cur] + w
                        depth[nbr] = depth[cur] + 1
                        stack.append(nbr)
            data = (parent, dist, depth)
            self._cache["root"] = data
        return data

    def dist_to_basepoint(self, node: str) -> Fraction:
        parent, dist, _ = self._root_data()
        if node not in dist:
            raise SkeletonError(f"node {node!r} not connected to the basepoint")
        return dist[node]

    def vertex_distance(self, a: str, b: str) -> Fraction:
        if a not in self._adj or b not in self._adj:
            raise UnknownPointError(f"unknown node in pair ({a!r}, {b!r})")
        parent, dist, depth = self._root_data()
        if a not in dist or b not in dist:
            raise SkeletonError("distance query across disconnected components")
        return dist[a] + dist[b] - 2 * dist[_common_ancestor(parent, depth, a, b)]

    # -- directional reach (cached) ------------------------------------------

    def directional_reach(self) -> dict[tuple[str, str], Fraction]:
        """For each directed edge ``(a, b)``: the farthest distance from ``a``
        into the branch entered through ``b``."""
        table = self._cache.get("reach")
        if table is None:
            table = {}
            # iterative memoized DFS over directed edges
            for a in self._adj:
                for b in self._adj[a]:
                    if (a, b) in table:
                        continue
                    stack = [(a, b)]
                    while stack:
                        x, y = stack[-1]
                        if (x, y) in table:
                            stack.pop()
                            continue
                        pending = [
                            (y, z) for z in self._adj[y] if z != x and (y, z) not in table
                        ]
                        if pending:
                            stack.extend(pending)
                            continue
                        best = Fraction(0)
                        for z in self._adj[y]:
                            if z != x:
                                cand = table[(y, z)]
                                if cand > best:
                                    best = cand
                        table[(x, y)] = self._adj[x][y] + best
                        stack.pop()
            self._cache["reach"] = table
        return table

    def reaches_at(self, node: str, exclude: Iterable[str] = ()) -> list[Fraction]:
        """Sorted (descending) reaches of the branches at ``node``, skipping
        the directions listed in ``exclude``."""
        table = self.directional_reach()
        skip = set(exclude)
        vals = [table[(node, nbr)] for nbr in self._adj[node] if nbr not in skip]
        vals.sort(reverse=True)
        return vals


# -- point normalization ----------------------------------------------------


def edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


def normalize_point(tree: TreeSkeleton, pt: PointRef) -> PointRef:
    """Canonical form of a point: boundary offsets become vertices and edge
    orientation is made canonical, so equal metric points compare equal."""
    if isinstance(pt, Vertex):
        if not tree.has_node(pt.node):
            raise UnknownPointError(f"unknown node {pt.node!r}")
        return pt
    if not tree.has_edge(pt.u, pt.v):
        raise UnknownPointError(f"unknown edge {pt.u}-{pt.v}")
    length = tree.edge_length(pt.u, pt.v)
    offset = as_rat(pt.offset)
    if offset < 0 or offset > length:
        raise UnknownPointError(
            f"offset {format_rat(offset)} outside edge {pt.u}-{pt.v} of length {format_rat(length)}"
        )
    if offset == 0:
        return Vertex(pt.u)
    if offset == length:
        return Vertex(pt.v)
    u, v = edge_key(pt.u, pt.v)
    if (u, v) != (pt.u, pt.v):
        offset = length - offset
    return EdgePoint(u, v, offset)


def point_on_edge(tree: TreeSkeleton, u: str, v: str, offset) -> PointRef:
    return normalize_point(tree, EdgePoint(u, v, as_rat(offset)))


# -- rooted arcs ----------------------------------------------------------------
#
# Here a point is the pair ``(node, h)``: the point at distance ``h`` from the
# basepoint on the arc from ``node`` up to its parent, so a vertex is
# ``(node, d(p, node))``.  The arc [a, b] is made of the root arcs of a and b
# above the height ``m = (a . b)_p`` where they part, so
# ``d(a, b) = h_a + h_b - 2m`` and each of its points lies at a known height on
# one of the two root arcs.


def _common_ancestor(parent, depth, x: str, y: str) -> str:
    """The lowest common ancestor of two nodes in the basepoint's rooted data."""
    while depth[x] > depth[y]:
        x = parent[x]
    while depth[y] > depth[x]:
        y = parent[y]
    while x != y:
        x = parent[x]
        y = parent[y]
    return x


def _rooted(parent, dist, pt: PointRef) -> tuple[str, Fraction]:
    """A normalized point as ``(node, h)``."""
    if isinstance(pt, Vertex):
        if pt.node not in dist:
            raise SkeletonError("distance query across disconnected components")
        return pt.node, dist[pt.node]
    if pt.u not in dist:
        raise SkeletonError("distance query across disconnected components")
    if parent[pt.v] == pt.u:
        return pt.v, dist[pt.u] + pt.offset
    if parent[pt.u] == pt.v:
        return pt.u, dist[pt.u] - pt.offset
    raise SkeletonError(
        f"edge {pt.u}-{pt.v} closes a cycle: it is off the basepoint's spanning tree"
    )


def _meet(tree: TreeSkeleton, a: PointRef, b: PointRef):
    """Normalized ``a`` and ``b`` as ``(node, h)`` pairs, flattened, and the
    height ``m`` at which their root arcs part.  ``m`` is the common
    ancestor's height unless a point on the edge just above that ancestor
    is lower."""
    parent, dist, depth = tree._root_data()
    na, ha = _rooted(parent, dist, a)
    nb, hb = _rooted(parent, dist, b)
    return na, ha, nb, hb, min(ha, hb, dist[_common_ancestor(parent, depth, na, nb)])


def _at_height(tree: TreeSkeleton, node: str, h: Fraction) -> PointRef:
    """The normalized point at height ``h <= d(p, node)`` on the root arc of
    ``node``."""
    parent, dist, _ = tree._root_data()
    while dist[node] > h:
        up = parent[node]
        if dist[up] < h:
            if up < node:
                return EdgePoint(up, node, h - dist[up])
            return EdgePoint(node, up, dist[node] - h)
        node = up
    return Vertex(node)


def distance(tree: TreeSkeleton, a: PointRef, b: PointRef) -> Fraction:
    """Length of the unique arc between two points of the skeleton."""
    a = normalize_point(tree, a)
    b = normalize_point(tree, b)
    if isinstance(a, Vertex) and isinstance(b, Vertex):
        return tree.vertex_distance(a.node, b.node)
    _, ha, _, hb, m = _meet(tree, a, b)
    return ha + hb - 2 * m


def point_on_segment(tree: TreeSkeleton, a: PointRef, b: PointRef, t) -> PointRef:
    """The point on the arc ``[a, b]`` at distance ``t`` from ``a``."""
    t = as_rat(t)
    na, ha, nb, hb, m = _meet(tree, normalize_point(tree, a), normalize_point(tree, b))
    total = ha + hb - 2 * m
    if t < 0 or t > total:
        raise ValueError(
            f"distance {format_rat(t)} outside [0, {format_rat(total)}]"
        )
    if t <= ha - m:
        return _at_height(tree, na, ha - t)
    return _at_height(tree, nb, 2 * m + t - ha)


# -- materialization ----------------------------------------------------------


@dataclass
class Materialization:
    """A skeleton in which a requested set of points has become vertices.

    ``points`` maps each normalized input point to its node id in ``tree``;
    ``to_source`` maps every node of ``tree`` back to a point of the source
    skeleton; ``spans`` maps every canonical edge of ``tree`` to the source
    edge segment it covers, as ``(source_edge, offset_at_u, offset_at_v)``.
    """

    tree: TreeSkeleton
    points: dict[PointRef, str]
    to_source: dict[str, PointRef]
    spans: dict[tuple[str, str], tuple[tuple[str, str], Fraction, Fraction]]

    def node_for(self, pt: PointRef) -> str:
        return self.points[pt]

    def pull_back(self, pt: PointRef) -> PointRef:
        """Map a point of the materialized tree to the source skeleton."""
        if isinstance(pt, Vertex):
            return self.to_source[pt.node]
        key = edge_key(pt.u, pt.v)
        src_key, off_u, off_v = self.spans[key]
        if (pt.u, pt.v) != key:
            raise SkeletonError("pull_back expects normalized points")
        if off_u <= off_v:
            src_off = off_u + pt.offset
        else:
            src_off = off_u - pt.offset
        return EdgePoint(src_key[0], src_key[1], src_off)

    def push_forward(self, pt: PointRef) -> PointRef:
        """Map a point of the source skeleton into the materialized tree."""
        if isinstance(pt, Vertex):
            return pt
        for (wu, wv), (src_key, o_u, o_v) in self.spans.items():
            if src_key != (pt.u, pt.v):
                continue
            lo, hi = (o_u, o_v) if o_u <= o_v else (o_v, o_u)
            if lo <= pt.offset <= hi:
                work_off = abs(pt.offset - o_u)
                return normalize_point(self.tree, EdgePoint(wu, wv, work_off))
        raise SkeletonError(f"point {pt!r} not found in any span")

    def graft(
        self,
        edges: Iterable[tuple[str, str, object]] = (),
        labels: Optional[Mapping[str, object]] = None,
    ) -> TreeSkeleton:
        """The materialized tree with fresh ``(u, v, length)`` edges hung on
        it; ``labels`` are merged into the existing ones by sorted union."""
        merged = dict(self.tree.labels)
        for node, names in (labels or {}).items():
            if isinstance(names, str):
                names = (names,)
            merged[node] = tuple(sorted(set(merged.get(node, ())) | set(names)))
        return TreeSkeleton(
            self.tree.basepoint,
            list(self.tree.edges()) + list(edges),
            labels=merged,
            extra_nodes=self.tree.nodes(),
        )


def gensym(taken: set[str], prefix: str) -> str:
    i = 1
    while f"{prefix}{i}" in taken:
        i += 1
    name = f"{prefix}{i}"
    taken.add(name)
    return name


def materialize(
    tree: TreeSkeleton, points: Iterable[PointRef], prefix: str = "cut"
) -> Materialization:
    """Subdivide edges so that every requested point is a vertex."""
    norm = [normalize_point(tree, pt) for pt in points]
    cuts: dict[tuple[str, str], set[Fraction]] = {}
    for pt in norm:
        if isinstance(pt, EdgePoint):
            cuts.setdefault((pt.u, pt.v), set()).add(pt.offset)

    taken = set(tree.nodes())
    new_edges: list[tuple[str, str, Fraction]] = []
    spans: dict[tuple[str, str], tuple[tuple[str, str], Fraction, Fraction]] = {}
    to_source: dict[str, PointRef] = {n: Vertex(n) for n in tree.nodes()}
    cut_node: dict[tuple[str, str, Fraction], str] = {}

    def record(u: str, v: str, length: Fraction, src, lo: Fraction, hi: Fraction):
        new_edges.append((u, v, length))
        key = edge_key(u, v)
        spans[key] = (src, lo, hi) if key == (u, v) else (src, hi, lo)

    for u, v, length in tree.edges():
        offs = sorted(cuts.get((u, v), ()))
        if not offs:
            record(u, v, length, (u, v), Fraction(0), length)
            continue
        prev_node, prev_off = u, Fraction(0)
        for off in offs:
            node = gensym(taken, prefix)
            to_source[node] = EdgePoint(u, v, off)
            cut_node[(u, v, off)] = node
            record(prev_node, node, off - prev_off, (u, v), prev_off, off)
            prev_node, prev_off = node, off
        record(prev_node, v, length - prev_off, (u, v), prev_off, length)

    out = TreeSkeleton(
        tree.basepoint,
        new_edges,
        labels=dict(tree.labels),
        extra_nodes=[n for n in tree.nodes() if tree.degree(n) == 0],
    )
    point_map: dict[PointRef, str] = {}
    for pt in norm:
        if isinstance(pt, Vertex):
            point_map[pt] = pt.node
        else:
            point_map[pt] = cut_node[(pt.u, pt.v, pt.offset)]
    return Materialization(out, point_map, to_source, spans)


def grid_points(
    tree: TreeSkeleton, mesh: Fraction, anchors: tuple[PointRef, ...] = ()
) -> list[PointRef]:
    """Vertices, points spaced <= mesh along every edge, and the anchors."""
    if mesh <= 0:
        raise ValueError("mesh must be positive")
    pts: list[PointRef] = [Vertex(n) for n in tree.nodes()]
    for u, v, length in tree.edges():
        k = 1
        while k * mesh < length:
            pts.append(EdgePoint(u, v, k * mesh))
            k += 1
    for a in anchors:
        a = normalize_point(tree, a)
        if a not in pts:
            pts.append(a)
    return pts


# -- canonical form ------------------------------------------------------------


def canonicalize(tree: TreeSkeleton, keep: Iterable[str] = ()) -> TreeSkeleton:
    """Suppress unlabeled non-basepoint degree-2 nodes by merging their edges.

    Nodes listed in ``keep`` survive regardless.  Labeled nodes and the
    basepoint always survive.
    """
    protected = set(keep) | {tree.basepoint} | set(tree.labels)
    adj = {u: dict(nbrs) for u, nbrs in tree._adj.items()}
    changed = True
    while changed:
        changed = False
        for node in sorted(adj):
            if node in protected or len(adj[node]) != 2:
                continue
            (n1, w1), (n2, w2) = sorted(adj[node].items())
            if n1 == n2 or n2 in adj[n1]:
                continue  # would create a parallel edge; leave for validate()
            del adj[node]
            del adj[n1][node]
            del adj[n2][node]
            adj[n1][n2] = w1 + w2
            adj[n2][n1] = w1 + w2
            changed = True
    edges = [(u, v, w) for u, nbrs in adj.items() for v, w in nbrs.items() if u < v]
    isolated = [n for n in adj if not adj[n]]
    return TreeSkeleton(tree.basepoint, edges, labels=dict(tree.labels), extra_nodes=isolated)


# -- validation ----------------------------------------------------------------


def validate(tree: TreeSkeleton, r) -> ValidationReport:
    """Check connectivity, acyclicity, edge positivity, canonical form and
    the radius bound ``d(p, x) <= r`` for every node ``x``."""
    r = as_rat(r)
    violations: list[Violation] = []

    for u, v, w in tree.edges():
        if w <= 0:
            violations.append(
                Violation("non_positive_edge", f"edge {u}-{v} has length {format_rat(w)}")
            )

    # connectivity / acyclicity by BFS from the basepoint
    seen = {tree.basepoint}
    parent: dict[str, Optional[str]] = {tree.basepoint: None}
    queue = [tree.basepoint]
    cycle_witness = None
    while queue:
        cur = queue.pop()
        for nbr in tree._adj[cur]:
            if nbr not in seen:
                seen.add(nbr)
                parent[nbr] = cur
                queue.append(nbr)
            elif parent.get(cur) != nbr and cycle_witness is None:
                cycle_witness = (cur, nbr)
    missing = sorted(set(tree.nodes()) - seen)
    if missing:
        violations.append(
            Violation("disconnected", f"nodes unreachable from basepoint: {', '.join(missing)}")
        )
    n_edges = len(tree.edges())
    if cycle_witness is not None or (not missing and n_edges != len(tree.nodes()) - 1):
        where = f"extra adjacency at {cycle_witness[0]}-{cycle_witness[1]}" if cycle_witness else "edge count"
        violations.append(Violation("cycle", where))

    for node in tree.nodes():
        if (
            tree.degree(node) == 2
            and node != tree.basepoint
            and node not in tree.labels
        ):
            violations.append(
                Violation("non_canonical", f"unlabeled degree-2 node {node}")
            )

    max_dist: Optional[Fraction] = None
    if not missing and cycle_witness is None and n_edges == len(tree.nodes()) - 1:
        max_dist = Fraction(0)
        for node in tree.nodes():
            d = tree.dist_to_basepoint(node)
            if d > max_dist:
                max_dist = d
            if d > r:
                violations.append(
                    Violation(
                        "radius_exceeded",
                        f"node {node} at distance {format_rat(d)} > {format_rat(r)}",
                    )
                )

    return ValidationReport(ok=not violations, violations=tuple(violations), max_distance=max_dist)
