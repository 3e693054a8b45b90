"""Edge-weighted combinatorial skeletons of pointed real trees.

A :class:`TreeSkeleton` is a finite connected acyclic graph with strictly
positive rational edge lengths and a distinguished basepoint.  It induces a
finitely spanned pointed real tree: the points of that tree are the vertices
plus the interiors of the edges, addressed by :class:`PointRef` values.

Distances and points on arcs are computed in a rooted, integer-valued form.
One search from the basepoint gives every node's parent, depth and distance
from the basepoint as an integer numerator over ``D``, the lcm of the
denominators of the edge lengths; on a tree that is the lcm of the
denominators of those distances.  A point is ``(node, h, den)``: the point at
height ``h / den`` on the arc from ``node`` up to its parent.  One
common-ancestor loop gives the height at which two root arcs part, and one
ancestor walk finds the point at a given height.  Radius checks compare
these integers too; a ``Fraction`` is built only for a result or a report.
A private builder grows a copy of a tree in the same integer heights: it
cuts edges, one at a time or all at the multiples of a mesh, hangs
segments and freezes the result once; :func:`materialize` is its cuts at a
set of points, frozen.  A skeleton whose
search meets an edge off its spanning tree is not a tree, and one whose
search meets an edge of length at most 0 is not a metric tree; every
distance query on either raises :class:`SkeletonError` naming that edge.

All values are immutable after construction and every operation here is a
pure function, so skeletons are safe to share across threads.  Internal
caches (rooted data, sorted node and edge tuples, directional reach tables
as integers over ``D`` like the heights) are filled lazily with
``dict.setdefault``: each entry is written once, and every caller sees that
one value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Union

from .rationals import as_rat, format_rat


class SkeletonError(ValueError):
    """Malformed skeleton data (unknown node, duplicate edge, bad offset)."""


class UnknownPointError(SkeletonError):
    """A PointRef does not address a point of the given skeleton."""


class RadiusExceededError(ValueError):
    def __init__(self, point, dist: Fraction, radius: Fraction):
        self.point, self.distance, self.radius = point, dist, radius
        super().__init__(
            f"point {format_point(point)} would sit at distance "
            f"{format_rat(dist)} > {format_rat(radius)} from the basepoint"
        )


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
            if not isinstance(node, str):
                raise SkeletonError(f"bad node id: {node!r}")
            if node not in adj:
                if node.split() != [node]:  # empty, or contains whitespace
                    raise SkeletonError(f"bad node id: {node!r}")
                adj[node] = {}

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
        got = self._cache.get("nodes")
        if got is None:
            got = self._cache.setdefault("nodes", tuple(sorted(self._adj)))
        return got

    def edges(self) -> tuple[tuple[str, str, Fraction], ...]:
        got = self._cache.get("edges")
        if got is None:
            out = sorted(
                (u, v, w) for u, nbrs in self._adj.items() for v, w in nbrs.items() if u < v
            )
            got = self._cache.setdefault("edges", tuple(out))
        return got

    def has_node(self, node: str) -> bool:
        return node in self._adj

    def _adjacent(self, node: str) -> dict[str, Fraction]:
        try:
            return self._adj[node]
        except KeyError:
            raise UnknownPointError(f"unknown node {node!r}") from None

    def neighbors(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(self._adjacent(node)))

    def degree(self, node: str) -> int:
        return len(self._adjacent(node))

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

    def _search(self):
        """``(parent, num, depth, D, cycle, short)`` from one search of the
        basepoint's component: ``num[x] / D`` is ``d(p, x)``, summed in
        integers over the lcm ``D`` of the edge lengths' denominators,
        ``cycle`` is the first edge met that is off the search's spanning
        tree, as ``(from, to)``, and ``short`` the first spanning-tree edge
        met of length at most 0, as ``(from, to, length)``; each is ``None``
        if there is none."""
        data = self._cache.get("root")
        if data is None:
            den = lcm(*{w.denominator for nbrs in self._adj.values() for w in nbrs.values()})
            parent: dict[str, Optional[str]] = {self.basepoint: None}
            num: dict[str, int] = {self.basepoint: 0}
            depth: dict[str, int] = {self.basepoint: 0}
            cycle = short = None
            stack = [self.basepoint]
            while stack:
                cur = stack.pop()
                up = parent[cur]
                for nbr, w in self._adj[cur].items():
                    if nbr not in parent:
                        if w.numerator <= 0 and short is None:
                            short = (cur, nbr, w)
                        parent[nbr] = cur
                        num[nbr] = num[cur] + w.numerator * (den // w.denominator)
                        depth[nbr] = depth[cur] + 1
                        stack.append(nbr)
                    elif nbr != up and cycle is None:
                        cycle = (cur, nbr)
            data = self._cache.setdefault("root", (parent, num, depth, den, cycle, short))
        return data

    def _root_data(self):
        """``(parent, num, depth, D)`` of the tree rooted at the basepoint;
        raises :class:`SkeletonError` if the skeleton has a cycle or an edge
        of length at most 0 there."""
        data = self._cache.get("rooted")
        if data is None:
            parent, num, depth, den, cycle, short = self._search()
            if cycle is not None:
                raise SkeletonError(
                    f"edge {cycle[0]}-{cycle[1]} closes a cycle: the skeleton is not a tree"
                )
            if short is not None:
                u, v = edge_key(short[0], short[1])
                raise SkeletonError(f"edge {u}-{v} has length {format_rat(short[2])}")
            data = self._cache.setdefault("rooted", (parent, num, depth, den))
        return data

    def _spanning_data(self):
        """:meth:`_root_data` of a skeleton whose every node is on the basepoint's
        component, as a model's; else :class:`SkeletonError` names the least node off it."""
        data = self._root_data()
        if len(data[0]) != len(self._adj):
            off = min(self._adj.keys() - data[0].keys())
            raise SkeletonError(f"node {off!r} not connected to the basepoint")
        return data

    def dist_to_basepoint(self, node: str) -> Fraction:
        _, num, _, den = self._root_data()
        if node not in num:
            raise SkeletonError(f"node {node!r} not connected to the basepoint")
        return Fraction(num[node], den)

    def vertex_distance(self, a: str, b: str) -> Fraction:
        if a not in self._adj or b not in self._adj:
            raise UnknownPointError(f"unknown node in pair ({a!r}, {b!r})")
        parent, num, depth, den = self._root_data()
        if a not in num or b not in num:
            raise SkeletonError("distance query across disconnected components")
        return Fraction(num[a] + num[b] - 2 * num[_common_ancestor(parent, depth, a, b)], den)

    # -- directional reach (cached) ------------------------------------------

    def _reach_num(self) -> dict[tuple[str, str], int]:
        """For each directed edge ``(a, b)``: the farthest distance from ``a``
        into the branch entered through ``b``, as an integer over ``D``.  The
        search inserts a node after its parent, so one pass from the leaves
        fills every edge pointing down and one from the root every edge up."""
        table = self._cache.get("reach_num")
        if table is None:
            parent, num, _, _ = self._spanning_data()
            table = {}
            order = [(parent[y], y) for y in parent if parent[y] is not None]
            for x, y in reversed(order):
                rest = (table[(y, z)] for z in self._adj[y] if z != x)
                table[(x, y)] = num[y] - num[x] + max(rest, default=0)
            for x, y in order:
                rest = (table[(x, z)] for z in self._adj[x] if z != y)
                table[(y, x)] = num[y] - num[x] + max(rest, default=0)
            table = self._cache.setdefault("reach_num", table)
        return table

    def directional_reach(self) -> dict[tuple[str, str], Fraction]:
        """For each directed edge ``(a, b)``: the farthest distance from ``a``
        into the branch entered through ``b``."""
        den = self._root_data()[3]
        return {key: Fraction(n, den) for key, n in self._reach_num().items()}

    def reaches_at(self, node: str, exclude: Iterable[str] = ()) -> list[Fraction]:
        """Sorted (descending) reaches of the branches at ``node``, skipping
        the directions listed in ``exclude``."""
        table, den = self._reach_num(), self._root_data()[3]
        skip = set(exclude)
        vals = [table[(node, nbr)] for nbr in self._adjacent(node) if nbr not in skip]
        vals.sort(reverse=True)
        return [Fraction(n, den) for n in vals]


# -- point normalization ----------------------------------------------------


def edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


def normalize_point(tree: TreeSkeleton, pt: PointRef) -> PointRef:
    """Canonical form of a point: boundary offsets become vertices and edge
    orientation is made canonical, so equal metric points compare equal."""
    if isinstance(pt, Vertex):
        if pt.node not in tree._adj:
            raise UnknownPointError(f"unknown node {pt.node!r}")
        return pt
    length = tree._adj.get(pt.u, {}).get(pt.v)
    if length is None:
        raise UnknownPointError(f"unknown edge {pt.u}-{pt.v}")
    offset = as_rat(pt.offset)
    # 0 < offset < length, cross-multiplied
    p, q = offset.numerator, offset.denominator
    if not (p > 0 and p * length.denominator < length.numerator * q):
        if offset < 0 or offset > length:
            raise UnknownPointError(
                f"offset {format_rat(offset)} outside edge {pt.u}-{pt.v} of length {format_rat(length)}"
            )
        return Vertex(pt.u) if offset == 0 else Vertex(pt.v)
    if pt.u < pt.v:
        return pt if offset is pt.offset else EdgePoint(pt.u, pt.v, offset)
    return EdgePoint(pt.v, pt.u, length - offset)


def point_on_edge(tree: TreeSkeleton, u: str, v: str, offset) -> PointRef:
    return normalize_point(tree, EdgePoint(u, v, as_rat(offset)))


# -- rooted arcs ----------------------------------------------------------------
#
# Here a point is ``(node, h, den)``: the point at distance ``h / den`` from
# the basepoint on the arc from ``node`` up to its parent, so a vertex is
# ``(node, num[node], D)``.  The arc [a, b] is made of the root arcs of a and b
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


def _rooted(parent, num, den: int, pt: PointRef) -> tuple[str, int, int]:
    """A normalized point as ``(node, h, den)``; an edge point's ``den`` is
    ``D`` times its offset's denominator."""
    if isinstance(pt, Vertex):
        if pt.node not in num:
            raise SkeletonError("distance query across disconnected components")
        return pt.node, num[pt.node], den
    if pt.u not in num:
        raise SkeletonError("distance query across disconnected components")
    p, q = pt.offset.numerator, pt.offset.denominator
    if parent[pt.v] == pt.u:
        return pt.v, num[pt.u] * q + p * den, den * q
    return pt.u, num[pt.u] * q - p * den, den * q


def _meet(tree: TreeSkeleton, a: PointRef, b: PointRef):
    """Normalized ``a`` and ``b`` as ``(node, h)`` pairs, flattened, then the
    height ``m`` at which their root arcs part, all three heights as
    integers over the denominator returned last.  ``m`` is the common
    ancestor's height unless a point on the edge just above that ancestor is
    lower."""
    parent, num, depth, den = tree._root_data()
    na, ha, da = _rooted(parent, num, den, a)
    nb, hb, db = _rooted(parent, num, den, b)
    if da != db:
        common = lcm(da, db)
        ha *= common // da
        hb *= common // db
        da = common
    m = num[_common_ancestor(parent, depth, na, nb)] * (da // den)
    return na, ha, nb, hb, min(ha, hb, m), da


def _climb(parent, h, node: str, t: int, k: int = 1) -> tuple[str, Optional[str]]:
    """Walk up the root arc of ``node`` to the height ``t``, comparing ``h[x] * k``
    with it: ``(x, None)`` at a vertex ``x`` of that height, else ``(x, parent[x])``
    for the link above ``x`` that contains that height."""
    while h[node] * k > t:
        up = parent[node]
        if h[up] * k < t:
            return node, up
        node = up
    return node, None


def _at_height(tree: TreeSkeleton, node: str, h: int, hd: int) -> PointRef:
    """The normalized point at height ``h / hd <= d(p, node)`` on the root
    arc of ``node``."""
    parent, num, _, den = tree._root_data()
    h *= den  # heights compared over den * hd: num[x] * hd against h
    node, up = _climb(parent, num, node, h, hd)
    if up is None:
        return Vertex(node)
    if up < node:
        return EdgePoint(up, node, Fraction(h - num[up] * hd, den * hd))
    return EdgePoint(node, up, Fraction(num[node] * hd - h, den * hd))


def distance(tree: TreeSkeleton, a: PointRef, b: PointRef) -> Fraction:
    """Length of the unique arc between two points of the skeleton."""
    _, ha, _, hb, m, den = _meet(tree, normalize_point(tree, a), normalize_point(tree, b))
    return Fraction(ha + hb - 2 * m, den)


def point_on_segment(tree: TreeSkeleton, a: PointRef, b: PointRef, t) -> PointRef:
    """The point on the arc ``[a, b]`` at distance ``t`` from ``a``."""
    t = as_rat(t)
    na, ha, nb, hb, m, den = _meet(tree, normalize_point(tree, a), normalize_point(tree, b))
    total = ha + hb - 2 * m
    tn, td = t.numerator, t.denominator
    if tn < 0 or tn * den > total * td:
        raise ValueError(
            f"distance {format_rat(t)} outside [0, {format_rat(Fraction(total, den))}]"
        )
    if tn * den <= (ha - m) * td:
        return _at_height(tree, na, ha * td - tn * den, den * td)
    return _at_height(tree, nb, (2 * m - ha) * td + tn * den, den * td)


# -- materialization ----------------------------------------------------------


@dataclass(frozen=True)
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
        """The node of a normalized point given to :func:`materialize`."""
        try:
            return self.points[pt]
        except KeyError:
            raise UnknownPointError(f"point {pt!r} was not materialized") from None

    def pull_back(self, pt: PointRef) -> PointRef:
        """Map a normalized point of the materialized tree to the source
        skeleton."""
        if normalize_point(self.tree, pt) != pt:
            raise SkeletonError("pull_back expects normalized points")
        if isinstance(pt, Vertex):
            return self.to_source[pt.node]
        src_key, off_u, off_v = self.spans[(pt.u, pt.v)]
        if off_u <= off_v:
            src_off = off_u + pt.offset
        else:
            src_off = off_u - pt.offset
        return EdgePoint(src_key[0], src_key[1], src_off)

    def push_forward(self, pt: PointRef) -> PointRef:
        """Map a point of the source skeleton, in either orientation, into
        the materialized tree.  The point is normalized on the source edges,
        each as long as the largest offset its spans reach, so a point off
        them raises :class:`UnknownPointError` as :func:`normalize_point`."""
        length: dict = {}
        for key, o_u, o_v in self.spans.values():
            length[key] = max(length.get(key, o_u), o_u, o_v)
        nodes = [n for n, x in self.to_source.items() if x == Vertex(n)]
        edges = [(u, v, w) for (u, v), w in length.items()]
        pt = normalize_point(TreeSkeleton(self.tree.basepoint, edges, extra_nodes=nodes), pt)
        if isinstance(pt, Vertex):
            return pt
        for (wu, wv), (src_key, o_u, o_v) in self.spans.items():
            if src_key == (pt.u, pt.v) and min(o_u, o_v) <= pt.offset <= max(o_u, o_v):
                return normalize_point(self.tree, EdgePoint(wu, wv, abs(pt.offset - o_u)))

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


def _names(taken: set[str], prefix: str):
    """``prefix1``, ``prefix2``, ... lazily, skipping the names in ``taken``
    as it stands when each is reached.  ``taken`` only grows and the walk
    never goes back, so each next name is the first free ``prefix<i>`` once
    the earlier ones are taken: one walk names any number of cuts."""
    return (name for i in count(1) if (name := f"{prefix}{i}") not in taken)


def materialize(
    tree: TreeSkeleton, points: Iterable[PointRef], prefix: str = "cut"
) -> Materialization:
    """Subdivide edges so that every requested point is a vertex: the
    :func:`_cut` of the points, frozen.  Raises :class:`SkeletonError` if
    ``tree`` is not a metric tree."""
    b, node_of = _cut(tree, points, 1, prefix)
    on_edge = {node: pt for pt, node in node_of.items() if isinstance(pt, EdgePoint)}
    to_source: dict[str, PointRef] = {n: Vertex(n) for n in tree._adj}
    to_source.update(on_edge)
    adj, zero, spans = tree._adj, Fraction(0), {}
    for x, up in b.parent.items():
        if up:
            key = (x, up) if x < up else (up, x)
            # a link with a cut end lies on that cut's source edge
            cut = on_edge.get(x) or on_edge.get(up)
            if cut is None:
                spans[key] = (key, zero, adj[x][up])
                continue
            length = adj[cut.u][cut.v]
            lo, hi = (
                on_edge[n].offset if n in on_edge else zero if n == cut.u else length for n in key
            )
            spans[key] = ((cut.u, cut.v), lo, hi)
    return Materialization(b.freeze(), node_of, to_source, spans)


class _TreeBuilder:
    """A copy of a skeleton grown in place: each node's parent and its height
    from the basepoint as an integer over ``den``, on the basepoint's
    component, the labels, and every taken node id.  Every edge has positive
    length, so heights strictly increase away from the basepoint.  A new
    parent link always has a new node at one end, so a link between two
    nodes adjacent in the source tree is a source edge, and keeps its
    length.  New names come from one :func:`_names` walk per prefix."""

    def __init__(self, tree: TreeSkeleton, den: int) -> None:
        parent, num, _, D = tree._root_data()
        self.basepoint, self.den, self.src = tree.basepoint, lcm(D, den), tree._adj
        self.h = {x: n * (self.den // D) for x, n in num.items()}
        self.parent, self.labels, self.taken = dict(parent), dict(tree.labels), set(tree._adj)
        self._walks: dict[str, Iterator[str]] = {}

    def _fresh(self, prefix: str) -> str:
        """The first free ``prefix<i>``, read off the prefix's walk."""
        walk = self._walks.get(prefix)
        if walk is None:
            walk = self._walks[prefix] = _names(self.taken, prefix)
        name = next(walk)
        self.taken.add(name)
        return name

    def cut(self, node: str, height: int, prefix: str) -> str:
        """The node at ``0 <= height <= h[node]`` on the root arc of ``node``;
        an edge is cut there, and the cut named by :meth:`_fresh`."""
        node, up = _climb(self.parent, self.h, node, height)
        if up is None:
            return node
        mid = self._fresh(prefix)
        self.parent[mid], self.h[mid], self.parent[node] = up, height, mid
        return mid

    def hang(self, node: str, length: int, tip: str, prefix: str, names: Iterable[str] = ()) -> str:
        """The end of a segment of ``length >= 0`` hung below ``node``, with
        ``names`` merged onto it by sorted union.  The tip keeps its id, or
        gets a name from :meth:`_fresh` if that id is taken."""
        if length > 0:
            tip = self._fresh(prefix) if tip in self.taken else tip
            self.taken.add(tip)
            self.parent[tip], self.h[tip], node = node, self.h[node] + length, tip
        if names:
            self.labels[node] = tuple(sorted(set(self.labels.get(node, ())) | set(names)))
        return node

    def net(self, mesh: int, prefix: str) -> list[tuple[str, str, str]]:
        """Cut every parent link ``(x, up)`` at the multiples ``k * mesh``,
        ``1 <= k <= _net_steps(L, mesh)``, of its length ``L``, measured from
        the link's :func:`edge_key`-first end, as :func:`grid_points` measures
        them.  The links are taken in :func:`edge_key` order and the cuts
        named by :meth:`_fresh` in that order, so the cuts get the
        names :func:`_cut` gives those grid points.  Returns
        ``(cut, x, up)`` for every cut, in that order."""
        parent, h = self.parent, self.h
        cuts = []
        for _, x, up in sorted((edge_key(x, up), x, up) for x, up in parent.items() if up):
            lo, hi = h[up], h[x]
            start, step = (lo, mesh) if up < x else (hi, -mesh)
            steps = range(1, _net_steps(hi - lo, mesh) + 1)
            chain = [(self._fresh(prefix), start + k * step) for k in steps]
            cuts.extend((mid, x, up) for mid, _ in chain)
            below = up
            for mid, height in chain if step > 0 else reversed(chain):
                parent[mid], h[mid], below = below, height, mid
            parent[x] = below
        return cuts

    def freeze(self, r: Optional[Fraction] = None) -> TreeSkeleton:
        """The grown tree as one :class:`TreeSkeleton`.  A source node off the
        basepoint's component raises :class:`SkeletonError`, and with a radius
        ``r`` a node past it :class:`RadiusExceededError`, each for the least such id."""
        h, den, src = self.h, self.den, self.src
        if off := src.keys() - self.parent.keys():
            raise SkeletonError(f"node {min(off)!r} not connected to the basepoint")
        if r is not None:
            if over := [x for x, y in h.items() if y * r.denominator > r.numerator * den]:
                raise RadiusExceededError(Vertex(min(over)), Fraction(h[min(over)], den), r)
        edges = [
            (up, x, src[x][up] if up in src.get(x, ()) else Fraction(h[x] - h[up], den))
            for x, up in self.parent.items()
            if up
        ]
        return TreeSkeleton(self.basepoint, edges, self.labels, extra_nodes=[self.basepoint])


def _cut(
    tree: TreeSkeleton, pts: Iterable[PointRef], den: int, prefix: str
) -> tuple[_TreeBuilder, dict[PointRef, str]]:
    """A :class:`_TreeBuilder` copy of ``tree`` over a multiple of ``den``,
    cut at the points in ``point_sort_key`` order, so that the cuts on an
    edge are named in order of offset, edges in :func:`edge_key` order; and
    each normalized point's node."""
    parent, num, _, D = tree._root_data()
    norm = sorted({normalize_point(tree, pt) for pt in pts}, key=point_sort_key)
    rooted = {pt: _rooted(parent, num, D, pt) for pt in norm}
    b = _TreeBuilder(tree, lcm(den, *(d for _, _, d in rooted.values())))
    return b, {pt: b.cut(node, h * (b.den // d), prefix) for pt, (node, h, d) in rooted.items()}


def hang(
    tree: TreeSkeleton, at: PointRef, length, tip: str, prefix: str, names: Iterable[str] = ()
) -> tuple[TreeSkeleton, str]:
    """Hang a fresh segment of ``length >= 0`` at the point ``at``: the
    single step of a :class:`_TreeBuilder` on a copy of ``tree``, which cuts
    an edge point with :func:`_cut` and hangs the segment.  Returns the new
    tree and its node for the end of the segment."""
    length = as_rat(length)
    b, node_of = _cut(tree, [at], length.denominator, prefix)
    (node,) = node_of.values()
    node = b.hang(node, length.numerator * (b.den // length.denominator), tip, prefix, names)
    return b.freeze(), node


def _leaving(tree: TreeSkeleton, node: str, skip: Optional[str], scale: int):
    """``(reach, direction)`` for every direction leaving a vertex but
    ``skip``, over ``scale`` times the skeleton's height denominator; a
    direction is ``(next node, distance to it, node)``."""
    table, num = tree._reach_num(), tree._root_data()[1]
    hn = num[node]
    return [
        (table[(node, nb)] * scale, (nb, abs(hn - num[nb]) * scale, node))
        for nb in tree.neighbors(node)
        if nb != skip
    ]


def _leaving_point(tree: TreeSkeleton, x: PointRef, den: int):
    """:func:`_leaving` for every direction leaving a normalized point, over
    ``den``, a multiple of ``D`` and of an edge point's offset denominator.
    An edge point is a degree-2 vertex whose reach towards one end ``e`` of
    its edge is the reach from the other end ``o`` through ``e``, less
    ``d(o, x)``; its direction is ``(e, d(x, e), o)``."""
    _, num, _, D = tree._root_data()
    if isinstance(x, Vertex):
        return _leaving(tree, x.node, None, den // D)
    table, length = tree._reach_num(), abs(num[x.u] - num[x.v]) * (den // D)
    off = x.offset.numerator * (den // x.offset.denominator)
    return [
        (table[(o, e)] * (den // D) - (length - t), (e, t, o))
        for e, o, t in ((x.u, x.v, off), (x.v, x.u, length - off))
    ]


def transfer_point(dst: TreeSkeleton, pt: PointRef) -> PointRef:
    """Re-address a point in an extension that kept every node id, its edges
    perhaps cut, as :func:`realize_type` and :func:`materialize` leave them."""
    if isinstance(pt, Vertex) or dst.has_edge(pt.u, pt.v):
        return normalize_point(dst, pt)
    return point_on_segment(dst, Vertex(pt.u), Vertex(pt.v), pt.offset)


def _net_steps(length, mesh) -> int:
    """The number of ``k >= 1`` with ``k * mesh < length``, for ints or
    ``Fraction``s alike."""
    return -(-length // mesh) - 1


def grid_points(
    tree: TreeSkeleton, mesh: Fraction, anchors: tuple[PointRef, ...] = ()
) -> list[PointRef]:
    """Vertices, points spaced <= mesh along every edge, and the anchors."""
    if mesh <= 0:
        raise ValueError("mesh must be positive")
    pts: list[PointRef] = [Vertex(n) for n in tree.nodes()]
    for u, v, length in tree.edges():
        pts.extend(EdgePoint(u, v, k * mesh) for k in range(1, _net_steps(length, mesh) + 1))
    for a in anchors:
        a = normalize_point(tree, a)
        if a not in pts:
            pts.append(a)
    return pts


# -- canonical form ------------------------------------------------------------


def canonicalize(tree: TreeSkeleton) -> TreeSkeleton:
    """Suppress unlabeled non-basepoint degree-2 nodes by merging their edges.

    Labeled nodes and the basepoint always survive.
    """
    protected = {tree.basepoint} | set(tree.labels)
    adj = {u: dict(nbrs) for u, nbrs in tree._adj.items()}
    # one pass: a suppression keeps both neighbours' degrees, and a node
    # skipped because its neighbours are adjacent keeps them adjacent
    for node in sorted(adj):
        if node in protected or len(adj[node]) != 2:
            continue
        (n1, w1), (n2, w2) = sorted(adj[node].items())
        if n2 in adj[n1]:
            continue  # would create a parallel edge; leave for validate()
        del adj[node]
        del adj[n1][node]
        del adj[n2][node]
        adj[n1][n2] = w1 + w2
        adj[n2][n1] = w1 + w2
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
        if w.numerator <= 0:
            violations.append(
                Violation("non_positive_edge", f"edge {u}-{v} has length {format_rat(w)}")
            )

    # connectivity / acyclicity from the search of the basepoint's component
    parent, num, _, den, cycle_witness, _ = tree._search()
    missing = sorted(set(tree.nodes()) - set(parent))
    if missing:
        violations.append(
            Violation("disconnected", f"nodes unreachable from basepoint: {', '.join(missing)}")
        )
    n_edges = len(tree.edges())
    if cycle_witness is not None or (not missing and n_edges != len(tree.nodes()) - 1):
        where = f"extra adjacency at {cycle_witness[0]}-{cycle_witness[1]}" if cycle_witness else "edge count"
        violations.append(Violation("cycle", where))

    adj = tree._adj
    for node in tree.nodes():
        if len(adj[node]) == 2 and node != tree.basepoint and node not in tree.labels:
            violations.append(Violation("non_canonical", f"unlabeled degree-2 node {node}"))

    max_dist: Optional[Fraction] = None
    if not missing and cycle_witness is None and n_edges == len(tree.nodes()) - 1:
        max_dist = Fraction(max(num.values()), den)
        for node in tree.nodes():
            if num[node] * r.denominator > r.numerator * den:
                d = format_rat(Fraction(num[node], den))
                violations.append(
                    Violation("radius_exceeded", f"node {node} at distance {d} > {format_rat(r)}")
                )

    return ValidationReport(ok=not violations, violations=tuple(violations), max_distance=max_dist)
