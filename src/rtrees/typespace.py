"""Complete types over finite parameter sets, as canonical geometric data.

An n-type over a parameter set A (with the basepoint adjoined) is uniquely
determined by: the closest points ``e_i`` of its realizations in the
subtree spanned by A, the distances ``s_i`` to them, and the pairwise
distances ``rho_ij`` between the realizing points.  Descriptors are valid
exactly when the offsets respect the radius bound and the combined matrix
on the symbols ``e_1..e_n, x_1..x_n`` satisfies the four-point condition.

The distance between two types is the infimum of ``max_i d(a_i, b_i)``
over common realizations.  ``type_distance_exact`` computes it in closed
form for ``n <= 3``; ``type_distance_search`` brackets it by a certified
grid search, which returns as soon as a configuration attains the exact
value, with the interval the exhaustive search would give.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional, Sequence

from .rationals import as_rat, format_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    _cut,
    _names,
    _net_steps,
    distance,
    hang,
    normalize_point,
    point_sort_key,
    transfer_point,
)
from .geometry import SpannedSubtree, project_to_subtree, spanned_subtree
from .matrices import (
    FourPointWitness,
    MetricMatrix,
    _arc_distances,
    _four_point_scan,
    _insert,
    realize_tree,
    tree_to_matrix,
)
from .formulas import CertifiedValue


class ContextMismatchError(ValueError):
    pass


class InconsistentDescriptorError(ValueError):
    def __init__(self, violation: "DescriptorViolation"):
        self.violation = violation
        super().__init__(str(violation))


@dataclass(frozen=True)
class DescriptorViolation:
    kind: str  # "offset_bound" | "pairwise_shape" | "four_point"
    detail: str
    witness: Optional[FourPointWitness] = None

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class OneTypeDescriptor:
    """A 1-type over a context: closest point (normalized at construction) and offset."""

    context: SpannedSubtree
    radius: Fraction
    e: PointRef
    s: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", normalize_point(self.context.ambient, self.e))


@dataclass(frozen=True)
class NTypeDescriptor:
    """An n-type over a context: closest points, offsets, pairwise matrix.  The
    closest points are normalized on the context's ambient tree at construction."""

    context: SpannedSubtree
    radius: Fraction
    closest: tuple[PointRef, ...]
    offsets: tuple[Fraction, ...]
    pairwise: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        tree = self.context.ambient
        object.__setattr__(self, "closest", tuple(normalize_point(tree, e) for e in self.closest))

    @property
    def n(self) -> int:
        return len(self.closest)

    def marginal(self, i: int) -> OneTypeDescriptor:
        return OneTypeDescriptor(
            context=self.context,
            radius=self.radius,
            e=self.closest[i],
            s=self.offsets[i],
        )


def same_context(q1, q2) -> bool:
    return q1.context == q2.context and q1.radius == q2.radius


def _require_same_context(q1, q2) -> None:
    if not same_context(q1, q2):
        raise ContextMismatchError("descriptors are over different contexts")


def type_of(
    tree: TreeSkeleton, A: Iterable[PointRef], b: Sequence[PointRef], r
) -> NTypeDescriptor:
    """The type of the tuple ``b`` over ``A`` (basepoint adjoined)."""
    r = as_rat(r)
    ctx = spanned_subtree(tree, A, adjoin_basepoint=True)
    pts = [normalize_point(tree, x) for x in b]
    closest = []
    offsets = []
    for x in pts:
        e, s = project_to_subtree(tree, ctx, x)
        closest.append(e)
        offsets.append(s)
    return NTypeDescriptor(
        context=ctx,
        radius=r,
        closest=tuple(closest),
        offsets=tuple(offsets),
        pairwise=tree_to_matrix(tree, pts).entries,
    )


def combined_matrix(q: NTypeDescriptor) -> MetricMatrix:
    """Distances on the symbols ``e_1..e_n, x_1..x_n`` induced by the
    descriptor data, built by validation only to name a four-point witness."""
    n = q.n
    labels = tuple(f"e{i + 1}" for i in range(n)) + tuple(f"x{i + 1}" for i in range(n))
    de = tree_to_matrix(q.context.ambient, q.closest).entries
    # d(x_i, e_j) = s_i + d(e_i, e_j), as e_i is the closest point of x_i
    cross = [tuple(de[i][j] + q.offsets[i] for j in range(n)) for i in range(n)]
    rows = [de[j] + tuple(cross[i][j] for i in range(n)) for j in range(n)]
    rows += [cross[i] + tuple(q.pairwise[i]) for i in range(n)]
    return MetricMatrix(labels, tuple(rows))


def _realization(q: NTypeDescriptor):
    """A descriptor's first violation, or the builder :func:`realize_type` freezes and the points:
    the combined matrix is a tree metric iff each class metric is and each cross-class ``rho_ij``
    is ``s_i + d(e_i, e_j) + s_j``, iff the insertions and the points' distances round-trip."""
    n = q.n
    if len(q.offsets) != n or len(q.pairwise) != n or any(len(row) != n for row in q.pairwise):
        return DescriptorViolation("pairwise_shape", "matrix shape does not match labels")
    tree = q.context.ambient
    for i in range(n):
        if not q.context.covers(q.closest[i]):
            return DescriptorViolation("offset_bound", f"closest point {i + 1} lies outside the context")
        bound = q.radius - distance(tree, Vertex(tree.basepoint), q.closest[i])
        if q.offsets[i] < 0 or q.offsets[i] > bound:
            text = f"offset s_{i + 1}={format_rat(q.offsets[i])} outside [0, {format_rat(bound)}]"
            return DescriptorViolation("offset_bound", text)
    for i in range(n):
        if q.pairwise[i][i] != 0:
            return DescriptorViolation("pairwise_shape", f"rho_{i + 1},{i + 1} != 0")
        for j in range(n):
            if q.pairwise[i][j] != q.pairwise[j][i] or q.pairwise[i][j] < 0:
                return DescriptorViolation("pairwise_shape", f"rho_{i + 1},{j + 1} malformed")
    classes = _classes(q)
    b, cut_at = _cut(tree, [e for e, *_ in classes], lcm(*(2 * m._scale for *_, m in classes)), "gl")
    nodes: dict[int, str] = {}
    for idx, (e, members, m) in enumerate(classes):
        if (got := _insert(b, cut_at[e], m, m.labels, "a", f"g{idx}:")) is None:
            break
        nodes.update(zip(members, got[1:]))
    else:
        pts = [nodes[i] for i in range(n)]
        rows = _arc_distances(b.parent, b.h, [(x, b.h[x]) for x in pts])
        if all(r == [as_rat(x) * b.den for x in q.pairwise[i][i + 1:]] for i, r in enumerate(rows)):
            return b, tuple(map(Vertex, pts))
    check = _four_point_scan(combined_matrix(q))  # only to name the first witness
    return DescriptorViolation("four_point", str(check), witness=check)


def _realized(q: NTypeDescriptor):
    """:func:`_realization` of a valid descriptor, else InconsistentDescriptorError."""
    if isinstance(got := _realization(q), DescriptorViolation):
        raise InconsistentDescriptorError(got)
    return got


def validate_descriptor(q: NTypeDescriptor):
    """True when a (unique) type with this data exists (a tree realizes it), else a violation."""
    got = _realization(q)
    return got if isinstance(got, DescriptorViolation) else True


def require_valid(q: NTypeDescriptor) -> None:
    """Raise InconsistentDescriptorError unless the descriptor is valid; it is realized once."""
    _realized(q)


def types_equal(q1: NTypeDescriptor, q2: NTypeDescriptor) -> bool:
    """Equality of the canonical data (closest points as metric points)."""
    _require_same_context(q1, q2)
    return (
        q1.closest == q2.closest
        and q1.offsets == q2.offsets
        and q1.pairwise == q2.pairwise
    )


def types_equal_transferred(q_small: NTypeDescriptor, q_big: NTypeDescriptor) -> bool:
    """Equality of type data across an extension of the ambient tree that
    kept every node id, such as :func:`realize_type` makes: closest points
    and generators are transferred into the larger ambient before comparison."""
    big = q_big.context.ambient
    transferred = tuple(transfer_point(big, e) for e in q_small.closest)
    gens_small = {transfer_point(big, g) for g in q_small.context.generators}
    gens_big = set(q_big.context.generators)
    return (
        gens_small == gens_big
        and q_small.radius == q_big.radius
        and transferred == q_big.closest
        and q_small.offsets == q_big.offsets
        and q_small.pairwise == q_big.pairwise
    )


def _classes(q: NTypeDescriptor) -> list[tuple[PointRef, list[int], MetricMatrix]]:
    """The coordinates grouped by closest point ``e``, each class with its
    metric on ``a``, at ``e``, and ``t{i+1}`` for each member ``i``."""
    classes: dict[PointRef, list[int]] = {}
    for i, e in enumerate(q.closest):
        classes.setdefault(e, []).append(i)
    out = []
    for e, members in classes.items():
        # rows of a, then of each member: offsets, then the pairwise block
        labels = ("a",) + tuple(f"t{i + 1}" for i in members)
        rows = [(0, *(q.offsets[i] for i in members))]
        rows += [(q.offsets[i], *(q.pairwise[i][j] for j in members)) for i in members]
        out.append((e, members, MetricMatrix(labels, tuple(rows))))
    return out


def realize_type(
    tree: TreeSkeleton, q: NTypeDescriptor
) -> tuple[TreeSkeleton, tuple[PointRef, ...]]:
    """Extend ``tree`` with fresh branches realizing the descriptor: the
    extension, which keeps every node of ``tree``, and the realized points.

    The closest points are cut into ``tree`` (cuts ``gl<i>``) and labeled
    ``a``; each class of coordinates sharing one is inserted below it from
    its class metric as :func:`realize_tree` inserts a matrix, its nodes
    named ``g<idx>:`` and its point ``i`` labeled ``t{i+1}``: validation's
    realization, frozen.  A node of ``tree`` past the radius raises
    :class:`RadiusExceededError`, one off its basepoint's component :class:`SkeletonError`."""
    b, points = _realized(q)
    if tree != q.context.ambient:
        raise ContextMismatchError("realize_type expects the context's ambient tree")
    return b.freeze(q.radius), points


def _checked_pair(q1: NTypeDescriptor, q2: NTypeDescriptor):
    """``q1``'s :func:`_realization` once the pair has one context, one arity and is valid."""
    _require_same_context(q1, q2)
    if q1.n != q2.n:
        raise ContextMismatchError("descriptors have different arities")
    got = _realized(q1)
    require_valid(q2)
    return got


def one_type_distance(q1: OneTypeDescriptor, q2: OneTypeDescriptor) -> Fraction:
    """Exact distance between 1-types over a common context.  Raises
    InconsistentDescriptorError for a 1-type that does not exist."""
    qs = [NTypeDescriptor(q.context, q.radius, (q.e,), (q.s,), ((Fraction(0),),)) for q in (q1, q2)]
    _checked_pair(*qs)
    return _marginal_distance(*qs)


def _marginal_distance(q1: NTypeDescriptor, q2: NTypeDescriptor) -> Fraction:
    """``max_i one_type_distance(q1.marginal(i), q2.marginal(i))`` of two
    valid descriptors of one arity over one context: ``|s1_i - s2_i|`` where
    the closest points agree, else ``s1_i + d(e1_i, e2_i) + s2_i``."""
    tree = q1.context.ambient
    best = Fraction(0)
    for e1, s1, e2, s2 in zip(q1.closest, q1.offsets, q2.closest, q2.offsets):
        best = max(best, abs(s1 - s2) if e1 == e2 else s1 + distance(tree, e1, e2) + s2)
    return best


def type_distance_exact(q1: NTypeDescriptor, q2: NTypeDescriptor) -> Optional[Fraction]:
    """Exact distance between two n-types over a common context: the
    infimum of ``max_i d(a_i, b_i)`` over common realizations.  ``None``
    for ``n > 3``: the value is cross-checked against the exhaustive
    ``type_distance_search`` only up to ``n = 3``.

    A coordinate whose closest points differ is at the constant distance
    ``s1_i + d(e1_i, e2_i) + s2_i``.  Coordinates sharing one closest point
    ``e`` in both types are measured by Gromov products at ``e``:
    ``d(a_i, b_i) <= t`` says that ``[e, a_i]`` and ``[e, b_i]`` share
    their first ``w_i = (c_i - t) / 2``, with ``c_i = s1_i + s2_i``.
    Those shared prefixes fit in one tree exactly when, for each pair,
    ``min(w_i, w_j, A_ij) = min(w_i, w_j, B_ij)``, where ``A_ij`` and
    ``B_ij`` are the products ``(a_i|a_j)_e`` and ``(b_i|b_j)_e`` read off
    the two descriptors; gluing the two class trees along the prefixes then
    realizes both types.  So the distance is the largest of the marginal
    bounds ``|s1_i - s2_i|``, the constants above, and, for each pair at
    one ``e`` with ``A_ij != B_ij``, ``min(c_i, c_j) - 2 min(A_ij, B_ij)``.
    """
    _checked_pair(q1, q2)
    return _exact_distance(q1, q2)


def _exact_distance(q1: NTypeDescriptor, q2: NTypeDescriptor) -> Optional[Fraction]:
    """``type_distance_exact`` of two descriptors already checked to be
    valid, of one arity and over one context."""
    if q1.n > 3:
        return None
    e1, e2 = q1.closest, q2.closest
    s1, s2 = q1.offsets, q2.offsets
    best = _marginal_distance(q1, q2)
    for i in range(q1.n):
        for j in range(i):
            if not e1[i] == e2[i] == e1[j] == e2[j]:
                continue
            a = (s1[i] + s1[j] - q1.pairwise[i][j]) / 2
            b = (s2[i] + s2[j] - q2.pairwise[i][j]) / 2
            if a != b:
                best = max(best, min(s1[i] + s2[i], s1[j] + s2[j]) - 2 * min(a, b))
    return best


def is_principal(q: NTypeDescriptor) -> bool:
    """Principality over the empty context: the coordinates lie along one
    piecewise segment from the basepoint.

    With all closest points at ``p``, the type is principal iff the deepest
    coordinate ``j`` satisfies ``s_j = s_i + rho_ij`` for every ``i``.
    """
    p = Vertex(q.context.ambient.basepoint)
    if q.context.generators != (p,):
        raise ContextMismatchError("principality is defined over the empty context")
    if any(e != p for e in q.closest):
        raise ContextMismatchError("descriptor over the empty context must project to p")
    j = max(range(q.n), key=lambda i: (q.offsets[i], -i))
    return all(q.offsets[j] == q.offsets[i] + q.pairwise[i][j] for i in range(q.n))


def dcl_acl(tree: TreeSkeleton, A: Iterable[PointRef]) -> SpannedSubtree:
    """Definable = algebraic closure: the spanned subtree of A with p."""
    return spanned_subtree(tree, A, adjoin_basepoint=True)


def apply_context_isometry(
    q: NTypeDescriptor, iso: Callable[[PointRef], PointRef]
) -> NTypeDescriptor:
    """Transport a descriptor along an isometry of its context."""
    out = replace(q, closest=tuple(iso(e) for e in q.closest))
    if not all(q.context.covers(e) for e in out.closest):
        raise ContextMismatchError("isometry image leaves the context")
    return out


# -- certified search for the distance between n-types ------------------------------


def _sphere_points(
    tree: TreeSkeleton,
    host: PointRef,
    radius_: Fraction,
    forbidden: SpannedSubtree,
) -> list[PointRef]:
    """Points at tree-distance exactly ``radius_ > 0`` from ``host``, in
    ``point_sort_key`` order, along the directions whose first edge piece,
    from ``host`` to the end of its edge, has its midpoint outside the
    forbidden subtree (or on an edge unknown to its ambient).  Only that
    midpoint is tested, so a returned point may lie in the subtree.  On a
    direction ``(a, b, start)`` the point at distance ``s`` from ``host`` is
    ``EdgePoint(a, b, start + s)``."""
    host = normalize_point(tree, host)
    if isinstance(host, Vertex):
        dirs = [(host.node, nb, Fraction(0)) for nb in tree.neighbors(host.node)]
    else:
        length = tree.edge_length(host.u, host.v)
        dirs = [(host.v, host.u, length - host.offset), (host.u, host.v, host.offset)]

    def leaves(a: str, b: str, start: Fraction) -> bool:
        mid = normalize_point(tree, EdgePoint(a, b, (start + tree.edge_length(a, b)) / 2))
        try:
            return not forbidden.covers(mid)
        except SkeletonError:
            return True

    results: list[PointRef] = []
    stack = [d for d in dirs if leaves(*d)]
    while stack:
        a, b, start = stack.pop()
        length = tree.edge_length(a, b)
        if start + radius_ <= length:
            results.append(normalize_point(tree, EdgePoint(a, b, start + radius_)))
        else:
            stack.extend((b, nb, start - length) for nb in tree.neighbors(b) if nb != a)
    return sorted(results, key=point_sort_key)


class _ReachedExact(Exception):
    """Unwinds the search once a configuration attains the exact distance."""


def type_distance_search(
    q1: NTypeDescriptor, q2: NTypeDescriptor, mesh, max_configs: int = 50000
) -> CertifiedValue:
    """Certified search for the distance between two n-types.

    The upper bound is the best configuration found by overlaying the
    realization branches of ``q2`` onto a realization of ``q1``: every
    branch segment may run fresh, or overlap an existing path from its
    attachment point for a prefix whose length is drawn from the mesh grid
    and the exact combinatorial breakpoints.  The lower bound is
    ``upper - L * mesh`` (L = twice the number of placed segments), never
    below the exact marginal bound ``max_i one_type_distance``.

    A completed configuration copies ``q2``'s class trees isometrically onto
    ``q1``'s realization, but may move a closest point onto the context
    (``_sphere_points``): 8 of 10,660 completed on ROADMAP.md item 5's corpus
    do not realize ``q2``; none there scores below ``type_distance_exact``.  The
    search returns once one reaches that value, with the exhaustive interval.
    Otherwise it stops once ``max_configs`` placements are tried and one
    configuration is complete; when that cuts it short, the result is
    marked ``truncated`` and its lower bound is the marginal bound alone.

    Collapses to the exact value for ``n = 1`` and for equal descriptors.
    """
    mesh = as_rat(mesh)
    if mesh <= 0:
        raise ValueError("mesh must be positive")
    b1, a_points = _checked_pair(q1, q2)

    marginal = _marginal_distance(q1, q2)
    if q1.n == 1:
        return CertifiedValue(marginal, marginal, mesh)
    if types_equal(q1, q2):
        return CertifiedValue(Fraction(0), Fraction(0), mesh)

    exact = _exact_distance(q1, q2)
    base0 = b1.freeze(q1.radius)

    # realization trees of q2, one per closest-point class; a key
    # ``(class, node)`` names a node of one, and the coordinates landing
    # there are those of its ``t{i+1}`` labels
    classes = [(e, members, realize_tree(m, "a")) for e, members, m in _classes(q2)]

    def coords_at(c: int, node: str) -> list[int]:
        _e, members, k_tree = classes[c]
        return [i for i in members if f"t{i + 1}" in k_tree.labels_of(node)]

    # cut the tree at the class roots first so that later fresh attachments
    # never subdivide a context edge (keeps the coverage test valid throughout)
    roots = [transfer_point(base0, e) for e, _m, _k in classes]
    roots_cut, root_node = _cut(base0, roots, 1, "rt")
    base = roots_cut.freeze()
    ctx_in_base = spanned_subtree(base, [transfer_point(base, g) for g in q1.context.generators])

    # the class trees' edges as (class, parent, child, length), each class
    # walked depth-first from its anchor
    segments: list[tuple[int, str, str, Fraction]] = []
    start: dict[tuple[int, str], PointRef] = {}
    for c, (_e, _members, k_tree) in enumerate(classes):
        anchor = k_tree.find_label("a")
        start[c, anchor] = Vertex(root_node[roots[c]])
        stack = [(anchor, None)]
        while stack:
            node, par = stack.pop()
            for nb in k_tree.neighbors(node):
                if nb != par:
                    segments.append((c, node, nb, k_tree.edge_length(node, nb)))
                    stack.append((nb, node))

    best: Optional[Fraction] = None
    budget = max_configs
    # the budget applies once a first configuration is complete; truncated
    # is set when it cuts a branch of the search
    truncated = False

    def search(tree_now: TreeSkeleton, placed: dict, seg_idx: int, cur_max: Fraction):
        nonlocal best, budget, truncated
        if best is not None and cur_max >= best:
            return
        if seg_idx == len(segments):
            best = cur_max
            if cur_max == exact:
                raise _ReachedExact
            return
        c, parent, child, length = segments[seg_idx]
        host = transfer_point(tree_now, placed[c, parent])
        # the segment's tip lies ``rest`` beyond its point ``at`` of tree_now,
        # so its distance to any y of tree_now is distance(tree_now, y, at) + rest
        k_tree = classes[c][2]
        same_class = [
            (k_tree.vertex_distance(node, child), transfer_point(tree_now, img))
            for (c2, node), img in placed.items()
            if c2 == c
        ]
        coords = [transfer_point(tree_now, a_points[i]) for i in coords_at(c, child)]
        tip_name = next(_names(set(tree_now.nodes()), f"b{seg_idx}_"))
        # candidate prefixes: a full overlap onto existing points, fresh,
        # then the mesh multiples below the length
        grid = (k * mesh for k in range(1, _net_steps(length, mesh) + 1))
        for lam in (length, Fraction(0), *grid):
            if budget <= 0 and best is not None:
                truncated = True
                return
            targets = _sphere_points(tree_now, host, lam, ctx_in_base) if lam else [host]
            rest = length - lam
            for at in targets:
                budget -= 1
                # the placement must copy the class tree isometrically:
                # reject fold-backs onto existing material
                if any(distance(tree_now, y, at) + rest != want for want, y in same_class):
                    continue
                new_max = cur_max
                for y in coords:
                    new_max = max(new_max, distance(tree_now, y, at) + rest)
                    if best is not None and new_max >= best:
                        break
                else:
                    t2, tip = tree_now, at
                    if rest:
                        t2, node = hang(tree_now, at, rest, tip_name, f"c{seg_idx}")
                        tip = Vertex(node)
                    search(t2, {**placed, (c, child): tip}, seg_idx + 1, new_max)

    # coordinates sitting at a class root (offset 0)
    start_max = Fraction(0)
    for (c, node), pt in start.items():
        for i in coords_at(c, node):
            start_max = max(start_max, distance(base, transfer_point(base, a_points[i]), pt))
    try:
        search(base, start, 0, start_max)
    except _ReachedExact:
        pass

    if best is None:
        raise RuntimeError("type distance search found no configuration")
    if truncated:
        # upper - L * mesh bounds only an exhaustive grid search
        lower = marginal
    else:
        lower = max(best - 2 * max(1, len(segments)) * mesh, marginal)
    return CertifiedValue(min(lower, best), best, mesh, truncated=truncated)
