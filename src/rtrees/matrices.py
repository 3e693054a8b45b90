"""Finite metrics: the four-point condition and additive-tree realization."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .rationals import as_rat, format_rat
from .skeleton import (
    PointRef,
    TreeSkeleton,
    Vertex,
    canonicalize,
    distance,
    materialize,
    normalize_point,
    point_on_segment,
)


@dataclass(frozen=True)
class FourPointWitness:
    """The lexicographically first quadruple violating the condition
    ``d(x,y) + d(z,t) <= max(d(x,z) + d(y,t), d(y,z) + d(x,t))``."""

    indices: tuple[int, int, int, int]
    labels: tuple[str, str, str, str]
    lhs: Fraction
    rhs: Fraction

    def __str__(self) -> str:
        quad = ",".join(self.labels)
        return f"4-point violation at ({quad}): {format_rat(self.lhs)} > {format_rat(self.rhs)}"


class FourPointViolation(ValueError):
    def __init__(self, witness: FourPointWitness):
        self.witness = witness
        super().__init__(str(witness))


@dataclass
class MetricMatrix:
    """Symmetric matrix of exact rationals with named rows."""

    labels: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels")
        entries = tuple(tuple(as_rat(x) for x in row) for row in self.entries)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("matrix shape does not match labels")
        for i in range(n):
            if entries[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {self.labels[i]}")
            for j in range(n):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("matrix is not symmetric")
                if entries[i][j] < 0:
                    raise ValueError("negative entry")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.labels)

    def dist(self, a: str, b: str) -> Fraction:
        return self.entries[self.labels.index(a)][self.labels.index(b)]

    def triangle_ok(self) -> bool:
        n = len(self.labels)
        return all(
            self.entries[i][j] <= self.entries[i][k] + self.entries[k][j]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )


def four_point_check(m: MetricMatrix):
    """True if every quadruple satisfies the condition; otherwise the first
    violating witness in lexicographic index order.

    Quadruples with repeated indices are included, so a passing check also
    certifies the triangle inequality.
    """
    n = len(m)
    e = m.entries
    for x in range(n):
        for y in range(n):
            dxy = e[x][y]
            for z in range(n):
                for t in range(n):
                    lhs = dxy + e[z][t]
                    rhs_a = e[x][z] + e[y][t]
                    rhs_b = e[y][z] + e[x][t]
                    rhs = rhs_a if rhs_a >= rhs_b else rhs_b
                    if lhs > rhs:
                        return FourPointWitness(
                            (x, y, z, t),
                            (m.labels[x], m.labels[y], m.labels[z], m.labels[t]),
                            lhs,
                            rhs,
                        )
    return True


def delta_hyperbolicity(m: MetricMatrix) -> Fraction:
    """Least ``delta >= 0`` such that
    ``min((x.z)_w, (y.z)_w) - delta <= (x.y)_w`` for all quadruples."""
    n = len(m)
    e = m.entries
    worst = Fraction(0)
    for w in range(n):
        gp = [
            [(e[x][w] + e[y][w] - e[x][y]) / 2 for y in range(n)]
            for x in range(n)
        ]
        for x in range(n):
            for y in range(n):
                gxy = gp[x][y]
                for z in range(n):
                    m1 = gp[x][z]
                    m2 = gp[y][z]
                    small = m1 if m1 <= m2 else m2
                    gap = small - gxy
                    if gap > worst:
                        worst = gap
    return worst


def tree_to_matrix(tree: TreeSkeleton, points: Sequence[PointRef], labels=None) -> MetricMatrix:
    """Exact pairwise distance matrix between the given points."""
    pts = [normalize_point(tree, p) for p in points]
    if labels is None:
        labels = tuple(f"x{i}" for i in range(len(pts)))
    n = len(pts)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = distance(tree, pts[i], pts[j])
            rows[i][j] = d
            rows[j][i] = d
    return MetricMatrix(tuple(labels), tuple(tuple(r) for r in rows))


def realize_tree(m: MetricMatrix, basepoint_label: Optional[str] = None) -> TreeSkeleton:
    """Realize an additive (four-point) metric as a labeled tree skeleton.

    Labels at distance zero are merged onto one node.  Interior attachment
    points become unlabeled Steiner nodes.  The result is minimal: it is
    spanned by the labeled points, and ``tree_to_matrix`` of the labeled
    points returns ``m`` exactly.
    """
    check = four_point_check(m)
    if check is not True:
        raise FourPointViolation(check)
    if basepoint_label is None:
        basepoint_label = m.labels[0]
    if basepoint_label not in m.labels:
        raise ValueError(f"unknown basepoint label {basepoint_label!r}")

    # merge zero-distance labels
    order = [basepoint_label] + [l for l in m.labels if l != basepoint_label]
    rep: dict[str, str] = {}
    groups: dict[str, list[str]] = {}
    for lbl in order:
        for seen in groups:
            if m.dist(lbl, seen) == 0:
                rep[lbl] = seen
                groups[seen].append(lbl)
                break
        else:
            rep[lbl] = lbl
            groups[lbl] = [lbl]

    reps = [l for l in order if rep[l] == l]
    base = reps[0]
    tree = TreeSkeleton(base, (), labels={base: tuple(sorted(groups[base]))}, extra_nodes=[base])
    anchor_node: dict[str, str] = {base: base}

    placed: list[str] = [base]
    for lbl in reps[1:]:
        # attachment height along the path from the base toward the deepest
        # already-placed witness of the Gromov product
        best_h = Fraction(0)
        best_anchor = base
        for other in placed[1:]:
            h = (m.dist(base, lbl) + m.dist(base, other) - m.dist(lbl, other)) / 2
            if h > best_h:
                best_h = h
                best_anchor = other
        attach_pt = point_on_segment(
            tree, Vertex(base), Vertex(anchor_node[best_anchor]), best_h
        )
        leaf_len = m.dist(base, lbl) - best_h
        mat = materialize(tree, [attach_pt], prefix="s")
        node = mat.node_for(normalize_point(tree, attach_pt))
        if leaf_len > 0:
            tree = mat.graft([(node, lbl, leaf_len)], {lbl: groups[lbl]})
            anchor_node[lbl] = lbl
        else:
            # lbl coincides with an existing (possibly Steiner) point
            tree = mat.graft(labels={node: groups[lbl]})
            anchor_node[lbl] = node
        placed.append(lbl)

    return canonicalize(tree)


def node_of_label(tree: TreeSkeleton, name: str) -> str:
    node = tree.find_label(name)
    if node is None:
        if tree.has_node(name):
            return name
        raise ValueError(f"no node labeled {name!r}")
    return node
