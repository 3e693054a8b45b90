"""Gluing constructions: family attachments, amalgams over shared subtrees,
and basepoint stars.

The glued metric follows the three-case rule: distances within one factor
are unchanged, and a path between factors runs through the identified
attachment points.  Amalgamation over a shared subtree decomposes the right
factor into the branches hanging off the shared part and reattaches each
branch wholesale at the image of its attachment point in the left factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .rationals import as_rat, format_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    distance,
    format_point,
    materialize,
    normalize_point,
    canonicalize,
    point_on_segment,
    validate,
)
from .geometry import is_between, spanned_subtree


class MalformedSpecError(ValueError):
    pass


class RadiusExceededError(ValueError):
    def __init__(self, point, dist: Fraction, radius: Fraction):
        self.point = point
        self.distance = dist
        self.radius = radius
        super().__init__(
            f"point {format_point(point)} would sit at distance "
            f"{format_rat(dist)} > {format_rat(radius)} from the basepoint"
        )


class NotIsometricError(ValueError):
    def __init__(self, left_pair, right_pair, d_left: Fraction, d_right: Fraction):
        self.witness = (left_pair, right_pair)
        super().__init__(
            f"shared map distorts a distance: "
            f"{format_rat(d_left)} vs {format_rat(d_right)} between "
            f"({format_point(left_pair[0])}, {format_point(left_pair[1])})"
        )


@dataclass(frozen=True)
class GlueSpec:
    """A base tree plus attachments, each meeting the base in one point."""

    base: TreeSkeleton
    attachments: tuple[tuple[TreeSkeleton, PointRef, PointRef], ...]


def _rename_tree(tree: TreeSkeleton, prefix: str) -> TreeSkeleton:
    edges = [(prefix + u, prefix + v, w) for u, v, w in tree.edges()]
    labels = {prefix + n: names for n, names in tree.labels.items()}
    extra = [prefix + n for n in tree.nodes()]
    return TreeSkeleton(prefix + tree.basepoint, edges, labels=labels, extra_nodes=extra)


def _rename_point(pt: PointRef, prefix: str) -> PointRef:
    if isinstance(pt, Vertex):
        return Vertex(prefix + pt.node)
    return EdgePoint(prefix + pt.u, prefix + pt.v, pt.offset)


def glue_family(spec: GlueSpec, r) -> TreeSkeleton:
    """Attach each factor to the base at one identified point.

    Requires, for each attachment, that the factor's radius measured from
    its attachment point plus the basepoint distance of the base-side
    attachment point stays within ``r``.
    """
    r = as_rat(r)
    base = spec.base
    attach_base_pts = []
    prepared = []
    for idx, (sub, at_sub, at_base) in enumerate(spec.attachments):
        try:
            at_base = normalize_point(base, at_base)
        except SkeletonError as exc:
            raise MalformedSpecError(f"attachment {idx}: {exc}") from exc
        base_dist = distance(base, Vertex(base.basepoint), at_base)
        mat_sub = materialize(sub, [at_sub], prefix="at")
        anchor = mat_sub.node_for(normalize_point(sub, at_sub))
        for node in mat_sub.tree.nodes():
            ecc = mat_sub.tree.vertex_distance(anchor, node)
            if base_dist + ecc > r:
                raise RadiusExceededError(Vertex(node), base_dist + ecc, r)
        attach_base_pts.append(at_base)
        prepared.append((mat_sub.tree, anchor, at_base))

    mat_base = materialize(base, attach_base_pts, prefix="gl")
    edges: list[tuple[str, str, Fraction]] = []
    labels: dict[str, set[str]] = {}
    taken = set(mat_base.tree.nodes())

    for idx, (sub_tree, anchor, at_base) in enumerate(prepared):
        prefix = f"g{idx}:"
        while any((prefix + n) in taken for n in sub_tree.nodes() if n != anchor):
            prefix = prefix[:-1] + "+:"
        base_node = mat_base.node_for(at_base)

        def rn(node: str) -> str:
            return base_node if node == anchor else prefix + node

        for u, v, w in sub_tree.edges():
            edges.append((rn(u), rn(v), w))
        for n, names in sub_tree.labels.items():
            labels.setdefault(rn(n), set()).update(names)
        taken.update(rn(n) for n in sub_tree.nodes())

    glued = canonicalize(mat_base.graft(edges, labels))
    report = validate(glued, r)
    if not report.ok:
        raise MalformedSpecError(f"glued tree invalid: {report}")
    return glued


def star_amalgam(trees: Sequence[TreeSkeleton], r) -> TreeSkeleton:
    """Glue the factors at their basepoints; branches at the new basepoint
    partition into the factors' branch sets."""
    if not trees:
        raise MalformedSpecError("star of an empty family")
    r = as_rat(r)
    base = TreeSkeleton("p", (), extra_nodes=["p"])
    spec = GlueSpec(
        base=base,
        attachments=tuple(
            (t, Vertex(t.basepoint), Vertex("p")) for t in trees
        ),
    )
    return glue_family(spec, r)


# -- amalgamation over a shared subtree ------------------------------------------


@dataclass
class SubtreeMap:
    """Basepoint-preserving isometric correspondence between spanned
    subtrees of two skeletons, given by generator pairs."""

    source: TreeSkeleton
    target: TreeSkeleton
    pairs: tuple[tuple[PointRef, PointRef], ...]

    def __post_init__(self):
        norm = [
            (normalize_point(self.source, a), normalize_point(self.target, b))
            for a, b in self.pairs
        ]
        bp = (Vertex(self.source.basepoint), Vertex(self.target.basepoint))
        if bp not in norm:
            norm.append(bp)
        self.pairs = tuple(norm)

    def check(self) -> None:
        """Raise NotIsometricError when some pair distance is distorted."""
        for i in range(len(self.pairs)):
            for j in range(i + 1, len(self.pairs)):
                a1, b1 = self.pairs[i]
                a2, b2 = self.pairs[j]
                d_src = distance(self.source, a1, a2)
                d_tgt = distance(self.target, b1, b2)
                if d_src != d_tgt:
                    raise NotIsometricError((a1, a2), (b1, b2), d_src, d_tgt)

    def map_point(self, z: PointRef) -> PointRef:
        """Image of a point of the source's shared subtree."""
        z = normalize_point(self.source, z)
        for a, b in self.pairs:
            if z == a:
                return b
        for a1, b1 in self.pairs:
            for a2, b2 in self.pairs:
                if a1 == a2:
                    continue
                if is_between(self.source, a1, z, a2):
                    return point_on_segment(
                        self.target, b1, b2, distance(self.source, a1, z)
                    )
        raise SkeletonError(f"point {format_point(z)} is not in the shared subtree")

    def inverse(self) -> "SubtreeMap":
        return SubtreeMap(
            source=self.target,
            target=self.source,
            pairs=tuple((b, a) for a, b in self.pairs),
        )


def amalgamate(
    m1: TreeSkeleton, m2: TreeSkeleton, shared: SubtreeMap, r
) -> tuple[TreeSkeleton, SubtreeMap, SubtreeMap]:
    """Amalgamate two trees over a shared subtree.

    ``shared`` maps points of ``m1`` to points of ``m2`` and must span the
    common subtree isometrically, sending basepoint to basepoint.  Returns
    the amalgam plus basepoint-preserving embeddings of both factors whose
    restrictions to the shared subtree agree.
    """
    r = as_rat(r)
    if shared.source is not m1 and shared.source != m1:
        raise MalformedSpecError("shared map source must be the left tree")
    if shared.target is not m2 and shared.target != m2:
        raise MalformedSpecError("shared map target must be the right tree")
    shared.check()
    inv = shared.inverse()

    right_gens = [b for _, b in shared.pairs]
    s2 = spanned_subtree(m2, right_gens, adjoin_basepoint=True)

    # cut m2 at the boundary of the shared coverage
    boundary: list[PointRef] = []
    for (u, v), intervals in s2.edge_cover.items():
        for lo, hi in intervals:
            for off in (lo, hi):
                pt = normalize_point(m2, EdgePoint(u, v, off))
                if isinstance(pt, EdgePoint):
                    boundary.append(pt)
    mat2 = materialize(m2, boundary, prefix="bd")
    work2 = mat2.tree

    def work_edge_covered(u: str, v: str) -> bool:
        src_key, o_u, o_v = mat2.spans[(u, v) if u < v else (v, u)]
        lo, hi = (o_u, o_v) if o_u <= o_v else (o_v, o_u)
        for clo, chi in s2.edge_cover.get(src_key, ()):
            if clo <= lo and hi <= chi:
                return True
        return False

    def work_node_covered(n: str) -> bool:
        return s2.covers(mat2.to_source[n])

    # hanging components of m2 off the shared subtree
    comps: list[tuple[str, list[tuple[str, str, Fraction]], set[str]]] = []
    seen: set[str] = set()
    for start in work2.nodes():
        if start in seen or work_node_covered(start):
            continue
        nodes = {start}
        comp_edges: list[tuple[str, str, Fraction]] = []
        attach: Optional[str] = None
        queue = [start]
        seen.add(start)
        while queue:
            cur = queue.pop()
            for nb in work2.neighbors(cur):
                key = (cur, nb) if cur < nb else (nb, cur)
                if work_edge_covered(*key):
                    continue
                if work_node_covered(nb):
                    if attach is not None and attach != nb:
                        raise MalformedSpecError(
                            "hanging branch touches the shared subtree twice"
                        )
                    attach = nb
                    comp_edges.append((cur, nb, work2.edge_length(cur, nb)))
                    continue
                if nb not in nodes:
                    nodes.add(nb)
                    seen.add(nb)
                    comp_edges.append((cur, nb, work2.edge_length(cur, nb)))
                    queue.append(nb)
        if attach is None:
            raise MalformedSpecError("hanging branch never meets the shared subtree")
        comps.append((attach, comp_edges, nodes))

    # assemble: left copy of m1, materialized at the attachment images
    left = _rename_tree(m1, "left:")
    attach_pts_left: list[PointRef] = []
    for attach, _, _ in comps:
        m2_pt = mat2.to_source[attach]
        m1_pt = inv.map_point(m2_pt)
        attach_pts_left.append(_rename_point(normalize_point(m1, m1_pt), "left:"))
    mat_left = materialize(left, attach_pts_left, prefix="am")
    edges: list[tuple[str, str, Fraction]] = []
    labels: dict[str, tuple[str, ...]] = {}
    for (attach, comp_edges, nodes), left_pt in zip(comps, attach_pts_left):
        attach_node = mat_left.node_for(normalize_point(left, left_pt))

        def rn(node: str) -> str:
            return attach_node if node == attach else f"right:{node}"

        for u, v, w in comp_edges:
            edges.append((rn(u), rn(v), w))
        for n in nodes:
            if work2.labels_of(n):
                labels[rn(n)] = work2.labels_of(n)

    amalgam = mat_left.graft(edges, labels)
    report = validate(amalgam, r)
    for viol in report.violations:
        if viol.kind == "radius_exceeded":
            node = viol.detail.split()[1]
            raise RadiusExceededError(
                Vertex(node), amalgam.dist_to_basepoint(node), r
            )
        if viol.kind in ("cycle", "disconnected", "non_positive_edge"):
            raise MalformedSpecError(f"amalgam invalid: {viol.detail}")

    g1 = SubtreeMap(
        source=m1,
        target=amalgam,
        pairs=tuple(
            (Vertex(n), mat_left.push_forward(Vertex("left:" + n)))
            for n in m1.nodes()
        ),
    )
    g2_pairs = []
    for n in m2.nodes():
        if s2.covers(Vertex(n)):
            m1_pt = inv.map_point(Vertex(n))
            npt = mat_left.push_forward(_rename_point(normalize_point(m1, m1_pt), "left:"))
            g2_pairs.append((Vertex(n), normalize_point(amalgam, npt)))
        else:
            g2_pairs.append((Vertex(n), Vertex(f"right:{n}")))
    g2 = SubtreeMap(source=m2, target=amalgam, pairs=tuple(g2_pairs))
    return amalgam, g1, g2
