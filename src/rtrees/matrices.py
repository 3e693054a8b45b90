"""Finite metrics: the four-point condition and additive-tree realization."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional, Sequence

from .rationals import as_rat, format_rat
from .skeleton import PointRef, TreeSkeleton, _TreeBuilder, _rooted, normalize_point


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


@dataclass(frozen=True)
class MetricMatrix:
    """Symmetric matrix of exact rationals with named rows.  Frozen: it is
    checked, and kept in private attributes, as integers over one scale, which
    the insertion and the scans read."""

    labels: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self, ints: Optional[list[list[int]]] = None, scale: int = 0):
        """Check the entries as ``ints`` over ``scale`` (or read by ``as_rat``); keep them."""
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels")
        entries = self.entries
        if ints is None:
            entries = tuple(tuple(as_rat(x) for x in row) for row in entries)
            scale = lcm(*(x.denominator for row in entries for x in row))
            ints = [[x.numerator * (scale // x.denominator) for x in row] for row in entries]
        if len(ints) != n or any(len(row) != n for row in ints):
            raise ValueError("matrix shape does not match labels")
        for i, row in enumerate(ints):
            if row[i] != 0:
                raise ValueError(f"nonzero diagonal at {self.labels[i]}")
            for j, x in enumerate(row):
                if x != ints[j][i]:
                    raise ValueError("matrix is not symmetric")
                if x < 0:
                    raise ValueError("negative entry")
        vars(self).update(entries=entries, _ints=ints, _scale=scale)

    @classmethod
    def _of_ints(cls, labels: tuple[str, ...], ints: list[list[int]], scale: int) -> "MetricMatrix":
        """Entries ``ints[i][j] / scale``, one ``Fraction`` per value, checked without ``as_rat``."""
        frac = {x: Fraction(x, scale) for x in {x for row in ints for x in row}}
        m = object.__new__(cls)
        vars(m).update(labels=labels, entries=tuple(tuple(map(frac.__getitem__, r)) for r in ints))
        m.__post_init__(ints, scale)
        return m

    def __len__(self) -> int:
        return len(self.labels)


def four_point_check(m: MetricMatrix):
    """True if every quadruple satisfies the condition; otherwise the first
    violating witness in lexicographic index order.

    Quadruples with repeated indices are included, so a passing check also
    certifies the triangle inequality.  ``True`` is certified by an exact
    round trip: the matrix satisfies the condition iff it is realized
    isometrically by a tree (Buneman 1974), so the O(n^4) scan over
    quadruples runs only when the insertion of :func:`realize_tree` fails.
    """
    if _is_tree_metric(m):
        return True
    return _four_point_scan(m)


def _is_tree_metric(m: MetricMatrix) -> bool:
    """Whether the insertion of :func:`realize_tree` round-trips ``m``.  Its
    nodes are named by index, so no label can clash with a node id."""
    if not m.labels:
        return True
    names = tuple(f"x{i}" for i in range(len(m)))
    return _insertion_tree(m, names, "x0") is not None


def _four_point_scan(m: MetricMatrix):
    """The quadruple scan behind :func:`four_point_check`, in integers."""
    n = len(m)
    e, scale = m._ints, m._scale
    for x in range(n):
        ex = e[x]
        for y in range(n):
            ey = e[y]
            dxy = ex[y]
            for z in range(n):
                ez = e[z]
                dxz = ex[z]
                dyz = ey[z]
                for t in range(n):
                    lhs = dxy + ez[t]
                    rhs_a = dxz + ey[t]
                    rhs_b = dyz + ex[t]
                    rhs = rhs_a if rhs_a >= rhs_b else rhs_b
                    if lhs > rhs:
                        return FourPointWitness(
                            (x, y, z, t),
                            (m.labels[x], m.labels[y], m.labels[z], m.labels[t]),
                            Fraction(lhs, scale),
                            Fraction(rhs, scale),
                        )
    return True


def delta_hyperbolicity(m: MetricMatrix) -> Fraction:
    """Least ``delta >= 0`` such that
    ``min((x.z)_w, (y.z)_w) - delta <= (x.y)_w`` for all quadruples.

    ``min((x.z)_w, (y.z)_w) - (x.y)_w`` is half of ``d(x,y) + d(z,w)`` less
    the larger of the other two pair sums, so ``delta`` is half the largest
    gap between the two largest pair sums of a 4-multiset, each scanned once.
    Zero is certified by the exact round trip of :func:`realize_tree` (a
    metric is 0-hyperbolic iff it is a tree metric)."""
    if _is_tree_metric(m):
        return Fraction(0)
    n = len(m)
    e, scale = m._ints, m._scale
    worst = 0
    for x in range(n):
        ex = e[x]
        for y in range(x, n):
            ey, dxy = e[y], ex[y]
            for z in range(y, n):
                ez, dxz, dyz = e[z], ex[z], ey[z]
                for w in range(z, n):
                    a, b, c = dxy + ez[w], dxz + ey[w], dyz + ex[w]
                    if a < b:
                        a, b = b, a
                    gap = c - a if c > a else a - (c if c > b else b)
                    if gap > worst:
                        worst = gap
    return Fraction(worst, 2 * scale)


def tree_to_matrix(tree: TreeSkeleton, points: Sequence[PointRef], labels=None) -> MetricMatrix:
    """Exact pairwise distance matrix between the given points, as integers
    from :func:`_arc_distances`; with fewer than two, no distance is read."""
    pts = [normalize_point(tree, p) for p in points]
    labels = tuple(f"x{i}" for i in range(len(pts))) if labels is None else tuple(labels)
    if len(pts) < 2:
        return MetricMatrix._of_ints(labels, [[0] for _ in pts], 1)
    parent, num, _, den = tree._root_data()
    rooted = [_rooted(parent, num, den, p) for p in pts]
    scale = lcm(*(d for _, _, d in rooted))
    rows = _arc_distances(parent, num, [(x, h * (scale // d)) for x, h, d in rooted], scale // den)
    upper = list(rows)
    ints = [[upper[j][i - j - 1] for j in range(i)] + [0] + row for i, row in enumerate(upper)]
    return MetricMatrix._of_ints(labels, ints, scale)


def _arc_distances(parent, height, pts, k: int = 1) -> Iterator[list[int]]:
    """Rows of distances from each point ``(node, h)``, at height ``h`` (over
    ``k`` times the scale of ``height``) on the arc from ``node`` up, to the
    later ones: ``h_i + h_j - 2 min(a[y], h_j)``, for ``y`` the first node of
    ``j``'s root arc in ``a``, ``i``'s arc: ``h_i`` at its node, ``k height`` above."""
    for i, (x, hi) in enumerate(pts):
        arc, row = {x: hi}, []
        while (x := parent[x]) is not None:
            arc[x] = height[x] * k
        for y, hj in pts[i + 1:]:
            while y not in arc:
                y = parent[y]
            m = arc[y]
            row.append(hi + hj - 2 * (m if m < hj else hj))
        yield row


def realize_tree(m: MetricMatrix, basepoint_label: Optional[str] = None) -> TreeSkeleton:
    """Realize an additive (four-point) metric as a labeled tree skeleton.

    Labels at distance zero are merged onto one node.  Interior attachment
    points become unlabeled Steiner nodes.  The result is minimal: it is
    spanned by the labeled points, and ``tree_to_matrix`` of the labeled
    points returns ``m`` exactly.

    The result is certified by that exact round trip.  Only when it fails
    (or an attachment falls outside its path) does the quadruple scan run,
    to raise :class:`FourPointViolation` with the lexicographically first
    witness.
    """
    if not m.labels:
        raise ValueError("cannot realize an empty matrix")
    if basepoint_label is None:
        basepoint_label = m.labels[0]
    if basepoint_label not in m.labels:
        check = four_point_check(m)
        if check is not True:
            raise FourPointViolation(check)
        raise ValueError(f"unknown basepoint label {basepoint_label!r}")
    tree = _insertion_tree(m, m.labels, basepoint_label)
    if tree is not None:
        return tree.freeze()
    check = _four_point_scan(m)
    if check is True:
        raise RuntimeError("insertion failed on a matrix that passes the four-point scan")
    raise FourPointViolation(check)


def _insertion_tree(
    m: MetricMatrix, labels: tuple[str, ...], basepoint_label: str
) -> Optional[_TreeBuilder]:
    """:func:`_insert` of ``m`` on a one-node builder: the builder, or ``None``."""
    tree = _TreeBuilder(TreeSkeleton(basepoint_label, ()), 2 * m._scale)
    nodes = _insert(tree, basepoint_label, m, labels, basepoint_label, "")
    return None if nodes is None else tree


def _insert(
    b: _TreeBuilder, root: str, m: MetricMatrix, labels: Sequence[str], base_label: str, prefix: str
) -> Optional[list[str]]:
    """Insert the labels of ``m`` one by one below ``root`` of the builder
    ``b``, whose ``den`` is a multiple of twice the matrix's scale:
    ``base_label`` at ``root``, each other at its Gromov-product height on
    the path from ``root`` to its best anchor (Culberson and Rudnicki 1989).
    Returns each label's node, or ``None`` if an attachment falls outside its
    path or a distance between labels differs from ``m``.  A leaf's id is
    ``prefix`` and its label, or, if that is taken, the next of the ``prefix
    s`` walk that names the Steiner cuts.  The subtree is canonical as built:
    every Steiner cut gets a leaf or a label."""
    e, k = m._ints, b.den // (2 * m._scale)

    # merge zero-distance labels, the base label's group first
    order = sorted(range(len(labels)), key=lambda i: labels[i] != base_label)
    groups: dict[int, list[str]] = {}
    rep = [0] * len(labels)
    for i in order:
        rep[i] = next((g for g in groups if e[i][g] == 0), i)
        groups.setdefault(rep[i], []).append(labels[i])

    base, *reps = groups
    base_row, top = e[base], b.h[root]
    node_of = {base: b.hang(root, 0, root, prefix + "s", groups[base])}
    for i in reps:
        # attachment height along the path from the base toward the deepest
        # already-placed witness of the Gromov product
        row, d_base = e[i], base_row[i]
        best_h, anchor = 0, base
        for j in node_of:
            h = d_base + base_row[j] - row[j]
            if h > best_h:
                best_h, anchor = h, j
        leaf_len = 2 * d_base - best_h
        if best_h > 2 * base_row[anchor] or leaf_len < 0:
            return None
        # a zero-length leaf labels the (possibly Steiner) attachment point
        at = b.cut(node_of[anchor], top + best_h * k, prefix + "s")
        node_of[i] = b.hang(at, leaf_len * k, prefix + labels[i], prefix + "s", groups[i])

    # the round trip: the distances between the labels' nodes against e
    nodes = [node_of[r] for r in rep]
    got = _arc_distances(b.parent, b.h, [(x, b.h[x]) for x in nodes])
    same = all(row == [2 * k * x for x in e[i][i + 1:]] for i, row in enumerate(got))
    return nodes if same else None


def node_of_label(tree: TreeSkeleton, name: str) -> str:
    node = tree.find_label(name)
    if node is None:
        if tree.has_node(name):
            return name
        raise ValueError(f"no node labeled {name!r}")
    return node
