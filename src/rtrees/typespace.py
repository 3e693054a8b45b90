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
from typing import Callable, Iterable, Optional, Sequence

from .rationals import as_rat, format_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    distance,
    gensym,
    materialize,
    normalize_point,
    point_on_segment,
    point_sort_key,
)
from .geometry import SpannedSubtree, project_to_subtree, spanned_subtree
from .matrices import (
    FourPointWitness,
    MetricMatrix,
    four_point_check,
    realize_tree,
)
from .amalgams import GlueSpec, glue_family
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


@dataclass
class OneTypeDescriptor:
    """A 1-type over a context: closest point and offset."""

    context: SpannedSubtree
    radius: Fraction
    e: PointRef
    s: Fraction


@dataclass
class NTypeDescriptor:
    """An n-type over a context: closest points, offsets, pairwise matrix."""

    context: SpannedSubtree
    radius: Fraction
    closest: tuple[PointRef, ...]
    offsets: tuple[Fraction, ...]
    pairwise: tuple[tuple[Fraction, ...], ...]

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
    n = len(pts)
    rho = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = distance(tree, pts[i], pts[j])
            rho[i][j] = d
            rho[j][i] = d
    return NTypeDescriptor(
        context=ctx,
        radius=r,
        closest=tuple(closest),
        offsets=tuple(offsets),
        pairwise=tuple(tuple(row) for row in rho),
    )


def combined_matrix(q: NTypeDescriptor) -> MetricMatrix:
    """Distances on the symbols ``e_1..e_n, x_1..x_n`` induced by the
    descriptor data."""
    n = q.n
    tree = q.context.ambient
    labels = tuple(f"e{i + 1}" for i in range(n)) + tuple(f"x{i + 1}" for i in range(n))
    size = 2 * n
    m = [[Fraction(0)] * size for _ in range(size)]
    de = [
        [distance(tree, q.closest[i], q.closest[j]) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            m[i][j] = de[i][j]
            m[n + i][j] = de[i][j] + q.offsets[i]
            m[j][n + i] = m[n + i][j]
            m[n + i][n + j] = q.pairwise[i][j]
    return MetricMatrix(labels, tuple(tuple(row) for row in m))


def validate_descriptor(q: NTypeDescriptor):
    """True when a (unique) type with this data exists, else a violation."""
    n = q.n
    tree = q.context.ambient
    p = Vertex(tree.basepoint)
    for i in range(n):
        if not q.context.covers(q.closest[i]):
            return DescriptorViolation(
                "offset_bound", f"closest point {i + 1} lies outside the context"
            )
        bound = q.radius - distance(tree, p, q.closest[i])
        if q.offsets[i] < 0 or q.offsets[i] > bound:
            return DescriptorViolation(
                "offset_bound",
                f"offset s_{i + 1}={format_rat(q.offsets[i])} outside [0, {format_rat(bound)}]",
            )
    for i in range(n):
        if q.pairwise[i][i] != 0:
            return DescriptorViolation("pairwise_shape", f"rho_{i + 1},{i + 1} != 0")
        for j in range(n):
            if q.pairwise[i][j] != q.pairwise[j][i] or q.pairwise[i][j] < 0:
                return DescriptorViolation(
                    "pairwise_shape", f"rho_{i + 1},{j + 1} malformed"
                )
    try:
        m = combined_matrix(q)
    except ValueError as exc:
        return DescriptorViolation("pairwise_shape", str(exc))
    check = four_point_check(m)
    if check is not True:
        return DescriptorViolation("four_point", str(check), witness=check)
    return True


def require_valid(q: NTypeDescriptor) -> None:
    """Raise InconsistentDescriptorError unless the descriptor is valid."""
    check = validate_descriptor(q)
    if check is not True:
        raise InconsistentDescriptorError(check)


def types_equal(q1: NTypeDescriptor, q2: NTypeDescriptor) -> bool:
    """Equality of the canonical data (closest points as metric points)."""
    _require_same_context(q1, q2)
    return (
        q1.closest == q2.closest
        and q1.offsets == q2.offsets
        and q1.pairwise == q2.pairwise
    )


def transfer_point(dst: TreeSkeleton, pt: PointRef) -> PointRef:
    """Re-address a point in an extension that kept the original node ids
    (edges may have been subdivided by gluing)."""
    if isinstance(pt, Vertex):
        return normalize_point(dst, pt)
    if dst.has_edge(pt.u, pt.v):
        return normalize_point(dst, pt)
    return point_on_segment(dst, Vertex(pt.u), Vertex(pt.v), pt.offset)


def types_equal_transferred(q_small: NTypeDescriptor, q_big: NTypeDescriptor) -> bool:
    """Equality of type data across an extension of the ambient tree that
    kept node ids (as produced by realize_type): closest points are
    transferred into the larger ambient before comparison."""
    big = q_big.context.ambient
    transferred = tuple(transfer_point(big, e) for e in q_small.closest)
    gens_small = {
        transfer_point(big, g) for g in q_small.context.generators
    }
    gens_big = set(q_big.context.generators)
    return (
        gens_small == gens_big
        and q_small.radius == q_big.radius
        and transferred == q_big.closest
        and q_small.offsets == q_big.offsets
        and q_small.pairwise == q_big.pairwise
    )


def _class_trees(q: NTypeDescriptor) -> list[tuple[PointRef, list[int], TreeSkeleton]]:
    """The coordinates grouped by closest point ``e``, each class with its
    realization: a tree whose node labeled ``a`` sits at ``e`` and whose
    node labeled ``t{i+1}`` realizes coordinate ``i``."""
    classes: list[tuple[PointRef, list[int]]] = []
    for i in range(q.n):
        for e, members in classes:
            if e == q.closest[i]:
                members.append(i)
                break
        else:
            classes.append((q.closest[i], [i]))

    out = []
    for e, members in classes:
        labels = ["a"] + [f"t{i + 1}" for i in members]
        size = len(labels)
        m = [[Fraction(0)] * size for _ in range(size)]
        for a_idx, i in enumerate(members, start=1):
            m[0][a_idx] = q.offsets[i]
            m[a_idx][0] = q.offsets[i]
            for b_idx, j in enumerate(members, start=1):
                if a_idx != b_idx:
                    m[a_idx][b_idx] = q.pairwise[i][j]
        k_tree = realize_tree(MetricMatrix(tuple(labels), tuple(tuple(r_) for r_ in m)), "a")
        out.append((e, members, k_tree))
    return out


def realize_type(
    tree: TreeSkeleton, q: NTypeDescriptor
) -> tuple[TreeSkeleton, tuple[PointRef, ...]]:
    """Extend ``tree`` with fresh branches realizing the descriptor.

    Each equivalence class of coordinates sharing a closest point ``e`` is
    realized as a small tree from its class metric and glued at ``e``;
    fresh branches never collide with existing ones in a finite skeleton.
    """
    require_valid(q)
    if tree != q.context.ambient:
        raise ContextMismatchError("realize_type expects the context's ambient tree")

    attachments = tuple(
        (k_tree, Vertex(k_tree.find_label("a")), e) for e, _members, k_tree in _class_trees(q)
    )
    glued = glue_family(GlueSpec(base=tree, attachments=attachments), q.radius)
    points = []
    for i in range(q.n):
        node = glued.find_label(f"t{i + 1}")
        if node is None:
            raise AssertionError("realized point label vanished")
        points.append(Vertex(node))
    return glued, tuple(points)


def one_type_distance(q1: OneTypeDescriptor, q2: OneTypeDescriptor) -> Fraction:
    """Exact distance between 1-types over a common context.  Raises
    InconsistentDescriptorError for a 1-type that does not exist."""
    _require_same_context(q1, q2)
    for q in (q1, q2):
        require_valid(NTypeDescriptor(q.context, q.radius, (q.e,), (q.s,), ((Fraction(0),),)))
    tree = q1.context.ambient
    e1 = normalize_point(tree, q1.e)
    e2 = normalize_point(tree, q2.e)
    if e1 == e2:
        return abs(q1.s - q2.s)
    return q1.s + distance(tree, e1, e2) + q2.s


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
    _require_same_context(q1, q2)
    if q1.n != q2.n:
        raise ContextMismatchError("descriptors have different arities")
    require_valid(q1)
    require_valid(q2)
    return _exact_distance(q1, q2)


def _exact_distance(q1: NTypeDescriptor, q2: NTypeDescriptor) -> Optional[Fraction]:
    """``type_distance_exact`` of two descriptors already checked to be
    valid, of one arity and over one context."""
    if q1.n > 3:
        return None
    tree = q1.context.ambient
    e1 = [normalize_point(tree, e) for e in q1.closest]
    e2 = [normalize_point(tree, e) for e in q2.closest]
    s1, s2 = q1.offsets, q2.offsets
    best = Fraction(0)
    for i in range(q1.n):
        if e1[i] != e2[i]:
            best = max(best, s1[i] + distance(tree, e1[i], e2[i]) + s2[i])
            continue
        best = max(best, abs(s1[i] - s2[i]))
        for j in range(i):
            if e1[j] != e2[j] or e1[j] != e1[i]:
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
    tree = q.context.ambient
    p = Vertex(tree.basepoint)
    if not q.context.is_single_point() or q.context.to_ambient[
        q.context.realized.basepoint
    ] != p:
        raise ContextMismatchError("principality is defined over the empty context")
    for e in q.closest:
        if normalize_point(tree, e) != p:
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
    new_closest = tuple(
        normalize_point(q.context.ambient, iso(e)) for e in q.closest
    )
    for e in new_closest:
        if not q.context.covers(e):
            raise ContextMismatchError("isometry image leaves the context")
    return replace(q, closest=new_closest)


# -- certified search for the distance between n-types ------------------------------


def _sphere_points(
    tree: TreeSkeleton,
    host: PointRef,
    radius_: Fraction,
    forbidden: SpannedSubtree,
) -> list[PointRef]:
    """Points at tree-distance exactly ``radius_`` from ``host`` whose arc
    from ``host`` leaves the forbidden subtree immediately."""
    if radius_ == 0:
        return [normalize_point(tree, host)]
    host = normalize_point(tree, host)
    results: list[PointRef] = []
    seen: set[tuple[str, str]] = set()

    def along_ok(u: str, v: str, lo: Fraction, hi: Fraction) -> bool:
        # first-step filter: skip directions that stay inside the context;
        # edges unknown to the context's ambient are fresh, hence outside
        mid = normalize_point(tree, EdgePoint(u, v, (lo + hi) / 2))
        try:
            return not forbidden.covers(mid)
        except SkeletonError:
            return True

    starts: list[tuple[str, Fraction, Optional[str]]] = []
    if isinstance(host, Vertex):
        starts.append((host.node, Fraction(0), None))
    else:
        length = tree.edge_length(host.u, host.v)
        if along_ok(host.u, host.v, Fraction(0), host.offset):
            if host.offset >= radius_:
                results.append(
                    normalize_point(tree, EdgePoint(host.u, host.v, host.offset - radius_))
                )
            else:
                starts.append((host.u, host.offset, host.v))
        if along_ok(host.u, host.v, host.offset, length):
            if length - host.offset >= radius_:
                results.append(
                    normalize_point(tree, EdgePoint(host.u, host.v, host.offset + radius_))
                )
            else:
                starts.append((host.v, length - host.offset, host.u))

    stack = [(node, dist, block) for node, dist, block in starts]
    while stack:
        node, dist, block = stack.pop()
        for nb in tree.neighbors(node):
            if nb == block:
                continue
            if (node, nb) in seen:
                continue
            seen.add((node, nb))
            length = tree.edge_length(node, nb)
            if dist == 0 and not along_ok(node, nb, Fraction(0), length):
                # leaving the host vertex: skip directions inside the context
                continue
            if dist + length >= radius_:
                off = radius_ - dist
                results.append(normalize_point(tree, EdgePoint(node, nb, off)))
            else:
                stack.append((nb, dist + length, node))
    uniq = []
    for pt in results:
        if pt not in uniq:
            uniq.append(pt)
    return sorted(uniq, key=point_sort_key)


def _fresh_attach(
    tree: TreeSkeleton, at: PointRef, length: Fraction, tag: str
) -> tuple[TreeSkeleton, PointRef]:
    """Hang a fresh segment at a point; returns the new tree and tip."""
    if length == 0:
        return tree, normalize_point(tree, at)
    mat = materialize(tree, [at], prefix=f"c{tag}")
    node = mat.node_for(normalize_point(tree, at))
    tip = gensym(set(mat.tree.nodes()), f"b{tag}_")
    return mat.graft([(node, tip, length)]), Vertex(tip)


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

    Every completed configuration realizes both types in one tree, so none
    scores below ``type_distance_exact``; the search returns as soon as one
    reaches that value, with the interval the exhaustive search would give.
    Otherwise it stops once ``max_configs`` placements are tried and one
    configuration is complete; when that cuts it short, the result is
    marked ``truncated`` and its lower bound is the marginal bound alone.

    Collapses to the exact value for ``n = 1`` and for equal descriptors.
    """
    mesh = as_rat(mesh)
    if mesh <= 0:
        raise ValueError("mesh must be positive")
    _require_same_context(q1, q2)
    require_valid(q1)
    require_valid(q2)
    if q1.n != q2.n:
        raise ContextMismatchError("descriptors have different arities")
    n = q1.n

    marginal = max(
        one_type_distance(q1.marginal(i), q2.marginal(i)) for i in range(n)
    )
    if n == 1:
        return CertifiedValue(marginal, marginal, mesh)
    if types_equal(q1, q2):
        return CertifiedValue(Fraction(0), Fraction(0), mesh)

    exact = _exact_distance(q1, q2)
    ambient = q1.context.ambient
    base0, a_points = realize_type(ambient, q1)

    # realization skeletons of q2, one per closest-point class, as rooted
    # edge lists in depth-first order
    classes = _class_trees(q2)

    # pre-materialize the class roots so that later fresh attachments never
    # subdivide a context edge (keeps the coverage test valid throughout)
    roots_raw = [
        normalize_point(base0, transfer_point(base0, e)) for e, _m, _k in classes
    ]
    mat_roots = materialize(base0, roots_raw, prefix="rt")
    base = mat_roots.tree
    ctx_in_base = spanned_subtree(
        base,
        [transfer_point(base, g) for g in q1.context.generators],
        adjoin_basepoint=True,
    )

    segments: list[tuple[object, object, Fraction, dict]] = []
    # (parent_key, child_key, length, coordinate indices landing at child)
    coord_at: dict[object, list[int]] = {}
    key_node: dict[object, tuple[int, str]] = {}
    for c_idx, (_e, members, k_tree) in enumerate(classes):
        anchor = k_tree.find_label("a")
        root_key = ("root", c_idx)
        key_node[root_key] = (c_idx, anchor)
        coord_at.setdefault(root_key, [])
        for i in members:
            if q2.offsets[i] == 0:
                coord_at[root_key].append(i)
        # DFS from the anchor
        stack = [(anchor, None)]
        node_key = {anchor: root_key}
        while stack:
            node, par = stack.pop()
            for nb in sorted(k_tree.neighbors(node)):
                if nb == par:
                    continue
                child_key = ("k", c_idx, nb)
                length = k_tree.edge_length(node, nb)
                idxs = [
                    i
                    for i in members
                    if f"t{i + 1}" in k_tree.labels_of(nb)
                ]
                segments.append((node_key[node], child_key, length, {"coords": idxs}))
                node_key[nb] = child_key
                key_node[child_key] = (c_idx, nb)
                coord_at[child_key] = idxs
                stack.append((nb, node))

    roots = {
        ("root", c_idx): Vertex(mat_roots.node_for(roots_raw[c_idx]))
        for c_idx in range(len(classes))
    }

    best: list[Optional[Fraction]] = [None]
    budget = [max_configs]
    # the budget applies once a first configuration is complete; truncated
    # is set when it cuts a branch of the search
    truncated = [False]

    def search(tree_now: TreeSkeleton, placed: dict, seg_idx: int, cur_max: Fraction):
        if best[0] is not None and cur_max >= best[0]:
            return
        if seg_idx == len(segments):
            if best[0] is None or cur_max < best[0]:
                best[0] = cur_max
                if cur_max == exact:
                    raise _ReachedExact
            return
        if budget[0] <= 0 and best[0] is not None:
            truncated[0] = True
            return
        parent_key, child_key, length, info = segments[seg_idx]
        host = transfer_point(tree_now, placed[parent_key])
        # candidate prefixes: exact full overlaps to existing points, fresh,
        # mesh-grid partial overlaps
        lam_cands: list[Fraction] = [length, Fraction(0)]
        k = 1
        while k * mesh < length:
            lam_cands.append(k * mesh)
            k += 1
        tried: set[PointRef] = set()
        for lam in lam_cands:
            if budget[0] <= 0 and best[0] is not None:
                truncated[0] = True
                return
            if lam == 0:
                targets = [None]  # fully fresh
            else:
                targets = _sphere_points(tree_now, host, lam, ctx_in_base)
            c_idx, child_node = key_node[child_key]
            k_tree = classes[c_idx][2]
            for z in targets:
                budget[0] -= 1
                if z is None:
                    t2, tip = _fresh_attach(tree_now, host, length, str(seg_idx))
                else:
                    if z in tried:
                        continue
                    tried.add(z)
                    t2, tip = _fresh_attach(tree_now, z, length - lam, str(seg_idx))
                # the placement must copy the class tree isometrically:
                # reject fold-backs onto existing material
                ok = True
                for other_key, other_img in placed.items():
                    oc, onode = key_node[other_key]
                    if oc != c_idx:
                        continue
                    want = k_tree.vertex_distance(onode, child_node)
                    got = distance(t2, transfer_point(t2, other_img), tip)
                    if got != want:
                        ok = False
                        break
                if not ok:
                    continue
                new_max = cur_max
                for i in info["coords"]:
                    a_pt = transfer_point(t2, placed_a[i])
                    d = distance(t2, a_pt, tip)
                    if d > new_max:
                        new_max = d
                    if best[0] is not None and new_max >= best[0]:
                        ok = False
                        break
                if not ok:
                    continue
                placed2 = dict(placed)
                placed2[child_key] = tip
                search(t2, placed2, seg_idx + 1, new_max)

    # coordinates of q1's realization, re-addressed lazily during search
    placed_a = {i: a_points[i] for i in range(n)}

    start_max = Fraction(0)
    start_placed = dict(roots)
    # coordinates sitting at a class root (offset 0)
    for key, idxs in coord_at.items():
        if key[0] == "root":
            for i in idxs:
                d = distance(base, transfer_point(base, placed_a[i]), start_placed[key])
                if d > start_max:
                    start_max = d
    try:
        search(base, start_placed, 0, start_max)
    except _ReachedExact:
        pass

    if best[0] is None:
        raise RuntimeError("type distance search found no configuration")
    upper = best[0]
    if truncated[0]:
        # upper - L * mesh bounds only an exhaustive grid search
        lower = marginal
    else:
        L = 2 * max(1, len(segments))
        lower = max(upper - L * mesh, marginal)
    lower = min(lower, upper)
    return CertifiedValue(lower, upper, mesh, truncated=truncated[0])
