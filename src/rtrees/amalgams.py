"""Gluing constructions: family attachments, amalgams over shared subtrees,
and basepoint stars.

The glued metric follows the three-case rule: distances within one factor
are unchanged, and a path between factors runs through the identified
attachment points.  Amalgamation over a shared subtree decomposes the right
factor into the branches hanging off the shared part and reattaches each
branch wholesale at the image of its attachment point in the left factor.
The shared part ``s2`` of the right factor contains the basepoint, so the
root arc of a point outside ``s2`` leaves it at the point's projection, and
the branches are the subtrees below these exits: one for each node outside
``s2`` whose parent lies in ``s2``, hung at the image of its exit.

Both constructions copy one factor into a tree builder, cut it at the
attachment points, hang the other factors' nodes on it and freeze it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .rationals import as_rat, format_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    RadiusExceededError,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    _cut,
    distance,
    format_point,
    normalize_point,
    canonicalize,
    point_on_segment,
    transfer_point,
    validate,
)
from .geometry import is_between, project_to_subtree, spanned_subtree


class MalformedSpecError(ValueError):
    pass


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
    prepared = []
    for idx, (sub, at_sub, at_base) in enumerate(spec.attachments):
        try:
            at_base = normalize_point(base, at_base)
        except SkeletonError as exc:
            raise MalformedSpecError(f"attachment {idx}: {exc}") from exc
        base_dist = distance(base, Vertex(base.basepoint), at_base)
        anchor = normalize_point(sub, at_sub)
        ecc = {}
        for node in sub.nodes():
            ecc[node] = distance(sub, anchor, Vertex(node))
            if base_dist + ecc[node] > r:
                raise RadiusExceededError(Vertex(node), base_dist + ecc[node], r)
        prepared.append((sub, anchor, at_base, ecc))

    parent, _, _, _, cycle, short = base._search()
    if cycle or short or len(parent) != len(base.nodes()):
        # not a tree, so validate reports it; an attachment got this far
        # only to a disconnected base, and would add nothing to the report
        glued = TreeSkeleton(base.basepoint, base.edges(), base.labels, extra_nodes=base.nodes())
    else:
        den = lcm(*(d.denominator for *_, ecc in prepared for d in ecc.values()))
        b, node_of = _cut(base, [at_base for _, _, at_base, _ in prepared], den, "gl")
        for idx, (sub, anchor, at_base, ecc) in enumerate(prepared):
            prefix = f"g{idx}:"
            while any((prefix + n) in b.taken for n in sub.nodes() if Vertex(n) != anchor):
                prefix = prefix[:-1] + "+:"
            # walk the factor outward from its anchor, the base's node ``top``
            top = node_of[at_base]
            if isinstance(anchor, Vertex):
                stack = [(anchor.node, top, None)]
            else:
                stack = [(anchor.u, top, anchor.v), (anchor.v, top, anchor.u)]
            while stack:
                y, up, came = stack.pop()
                h = b.h[top] + ecc[y].numerator * (b.den // ecc[y].denominator)
                node = b.hang(up, h - b.h[up], prefix + y, prefix, sub.labels_of(y))
                stack.extend((z, node, y) for z in sub.neighbors(y) if z != came)
        glued = b.freeze()

    glued = canonicalize(glued)
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


@dataclass(frozen=True)
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
        object.__setattr__(self, "pairs", tuple(norm))

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

    s2 = spanned_subtree(m2, [b for _, b in shared.pairs], adjoin_basepoint=True)
    parent2, num2, _, den2 = m2._root_data()
    if len(parent2) != len(m2.nodes()):  # a node off the basepoint's component
        raise MalformedSpecError("hanging branch never meets the shared subtree")
    # the left copy is grown only if it is a tree
    left = _rename_tree(m1, "left:")
    for viol in validate(left, r).violations:
        if viol.kind in ("cycle", "disconnected", "non_positive_edge"):
            raise MalformedSpecError(f"amalgam invalid: {viol.detail}")

    def image(pt: PointRef) -> PointRef:
        return _rename_point(inv.map_point(pt), "left:")

    # a branch starts at each node outside s2 whose parent is in s2, and hangs
    # at the image of its exit; the shared map is an isometry fixing the
    # basepoint, so every node of m2 keeps its height
    exits = {
        y: image(project_to_subtree(m2, s2, Vertex(y))[0])
        for y in parent2
        if y not in s2.vertex_cover and parent2[y] in s2.vertex_cover
    }
    b, node_of = _cut(left, exits.values(), den2, "am")
    for y in parent2:  # the search lists each node after its parent
        if y not in s2.vertex_cover:
            at = node_of[exits[y]] if y in exits else "right:" + parent2[y]
            h = num2[y] * (b.den // den2)
            b.hang(at, h - b.h[at], "right:" + y, "right:", m2.labels_of(y))
    amalgam = b.freeze(r)
    g1 = SubtreeMap(
        source=m1,
        target=amalgam,
        pairs=tuple((Vertex(n), Vertex("left:" + n)) for n in m1.nodes()),
    )
    g2 = SubtreeMap(
        source=m2,
        target=amalgam,
        pairs=tuple(
            (Vertex(n), transfer_point(amalgam, image(Vertex(n))))
            if n in s2.vertex_cover
            else (Vertex(n), Vertex("right:" + n))
            for n in m2.nodes()
        ),
    )
    return amalgam, g1, g2
