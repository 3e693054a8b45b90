"""Branching deficiency: how far a finite tree is from rich branching.

For a point ``x`` with ``l = r - d(p, x)``, the deficiency is

    psi(x) = inf over witness triples (y1, y2, y3) of
             max( max_i |d(x, y_i) - l|,
                  max_{i<j} d(x, y_i) + d(x, y_j) - d(y_i, y_j) )

It vanishes exactly when three branches of reach ``l`` leave some point
arbitrarily close to ``x``; richly branching models satisfy sup psi = 0.

``psi_at`` computes the infimum exactly.  Any witness triple spans, with
``x``, a subtree in which the witness arcs leave the trunk at at most two
points: an outer split ``c2`` carrying two witnesses on distinct branches
and an inner split ``c1`` on ``[x, c2]`` carrying the third.  With
``t_i = d(x, c_i)`` and per-branch reaches ``R``, optimizing each witness
depth gives the branch term ``g(t, R) = max(t - l, l - t - R, 0)`` and

    psi(x) = min over (c1, c2) of  max( 2 t2, g(t2, R2(c2)), inner(c1) )

where ``R2`` is the second-largest reach at ``c2`` avoiding ``x`` and
``inner`` optimizes the third witness over ``c1``: a path vertex with its
best off-path branch, the third branch at ``c2``, or a bare point on the
path.  Vertex positions of ``c2`` are enumerated by a depth-first walk
that carries the best inner option along the path.  For ``c2`` at offset
``s`` into an edge of length ``L`` that starts at distance ``ta`` from
``x``, every term but a constant ``c3`` (the deep witness through the far
end) is at most ``max(2 t2, l - t2)``, so the objective is
``max(2 (ta + s), l - ta - s, c3)``.  The max of its first two terms is
convex and least only at ``s*``, the clamp of ``(l - 3 ta) / 3`` to
``[0, L]``, with value ``m``; so the best split on the edge is ``s*`` if
``c3 < m``, else the first ``s`` with ``l - ta - s <= c3``, that is
``max(0, l - ta - c3)``, at value ``c3``.  Every configuration costs at
least the cross term ``2 t2``, which only grows along the walk, so the
walk stops below a split, and skips an edge, once ``2 t2`` reaches the
best value found.  A point inside an edge is evaluated in place as a
degree-2 vertex: its two reaches come from the reach table of the edge's
endpoints, and the walk, its witnesses and the host edge stay in the
given tree, which is never copied.

The walk runs on integers over one denominator ``den = 3 lcm(D q, r_d)``:
``D`` is the skeleton's height denominator, ``q`` that of ``x``'s offset
and ``r_d`` that of ``r``; the factor 3 makes ``l / 3`` integral.  Lengths
and reaches come from the skeleton's integer heights and reach table.  The
walk keeps a maker for its best triple, which builds ``Fraction`` points
only when called; ``psi_at`` never calls it.

``psi_grid_oracle`` is the independent brute-force check: the same
infimum restricted to witness triples on a finite grid.  It never
undercuts the exact value and exceeds it by at most ``2 * mesh``.

``rb_deficiency`` computes sup_x psi(x) exactly.  Vertices are scanned
directly.  On each open edge, the objective of a concrete witness triple
is a piecewise-linear function of the offset that bounds psi from above
everywhere; starting from the endpoint triples, edges are refined at the
argmax of the current bound until the bound matches the best exact sample.
Edges are visited in decreasing order of a cap on psi, and the scan stops
at the first edge whose cap does not beat the sup: every witness objective
is 2-Lipschitz in ``x``, so psi is, and the triple ``(x, x, x)`` gives
``psi(x) <= l``; so psi on an edge is at most the 2-Lipschitz tent over its
endpoint values and at most ``r`` minus its nearer endpoint's depth.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Optional

from .rationals import as_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    TreeSkeleton,
    Vertex,
    _meet,
    _rooted,
    distance,
    grid_points,
    normalize_point,
    point_on_edge,
    point_on_segment,
)
from .pl import PL, _pl, distance_profile


def _g(t: int, reach: int, l: int) -> int:
    """Best branch term for a witness hung at distance t into given reach."""
    return max(t - l, l - t - reach, 0)


def _top(leaving, k: int):
    """The ``k`` largest reaches with their directions, padded with 0 and None."""
    pairs = (sorted(leaving, reverse=True) + [(0, None)] * k)[:k]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _descend(tree: TreeSkeleton, x: PointRef, direction, depth: int, den: int) -> PointRef:
    """The point at depth ``depth / den`` along a maximal-reach path that
    leaves ``x`` in the given direction (its length over ``den`` too)."""
    if depth == 0 or direction is None:
        return x
    _, num, _, D = tree._root_data()
    table, scale = tree._reach_num(), den // D
    nxt, length, cur = direction
    rem = depth
    while rem > length:
        rem -= length
        best = None
        for z in tree.neighbors(nxt):
            if z != cur and (best is None or table[(nxt, z)] > best[0]):
                best = (table[(nxt, z)], z)
        if best is None:
            raise AssertionError("descent ran past a leaf")
        cur, nxt = nxt, best[1]
        length = abs(num[cur] - num[nxt]) * scale
    return normalize_point(tree, EdgePoint(nxt, cur, Fraction(length - rem, den)))


def _psi_walk(tree: TreeSkeleton, r: Fraction, x: PointRef):
    """Exact psi at a normalized point as ``(n, den, maker, host)``: the value
    is ``n / den``, and ``maker()`` builds an optimal witness triple.

    The host edge is ``(a, b)`` (``a`` nearer ``x``) when the optimum is
    attained with the outer split strictly inside that tree edge, else None.
    """
    parent, num, _, D = tree._root_data()
    _, h, hd = _rooted(parent, num, D, x)
    den = 3 * lcm(hd, r.denominator)
    l = r.numerator * (den // r.denominator) - h * (den // hd)
    if l < 0:
        raise ValueError("point lies outside the radius bound")
    if l == 0:
        return 0, den, lambda: (x, x, x), None
    table = tree._reach_num()
    scale = den // D

    def leaving(node: str, skip: Optional[str] = None):
        """``(reach, direction)`` for every direction leaving a vertex but
        ``skip``; a direction is ``(next node, distance to it, node)``."""
        hn = num[node]
        return [
            (table[(node, nb)] * scale, (nb, abs(hn - num[nb]) * scale, node))
            for nb in tree.neighbors(node)
            if nb != skip
        ]

    def inner_witness(desc):
        if desc[0] == "free":
            _, t2, c2ref = desc
            return point_on_segment(tree, x, c2ref, Fraction(min(l, t2), den))
        _, start, t1, direction, reach = desc
        return _descend(tree, start, direction, min(max(l - t1, 0), reach), den)

    # config c2 = x: witnesses into the three deepest branches at x itself; an
    # edge point is a degree-2 vertex with reaches read off its edge's ends
    if isinstance(x, Vertex):
        leave0 = leaving(x.node)
    else:
        off = x.offset.numerator * (den // x.offset.denominator)
        rest = abs(num[x.u] - num[x.v]) * scale - off
        leave0 = [
            (table[(x.v, x.u)] * scale - rest, (x.u, off, x.v)),
            (table[(x.u, x.v)] * scale - off, (x.v, rest, x.u)),
        ]
    vals0, dirs0 = _top(leave0, 3)
    best_val = _g(0, vals0[2], l)

    def root_witnesses():
        return tuple(_descend(tree, x, dirs0[i], min(l, vals0[i]), den) for i in range(3))

    best_maker = root_witnesses
    best_host: Optional[tuple[str, str]] = None

    def consider(val, maker, host=None):
        nonlocal best_val, best_maker, best_host
        if val < best_val:
            best_val, best_maker, best_host = val, maker, host

    # depth-first walk over vertex positions of the outer split, carrying the
    # best inner (third-witness) option found along the path from x
    stack = []

    def step(start: PointRef, direction, ta: int, c_in: int, c_in_desc):
        """Push the far end of the segment that leaves ``start`` (at distance
        ``ta`` from x) in the given direction, and consider the configs with
        the outer split strictly inside it."""
        if 2 * ta >= best_val:
            return  # the cross term alone rules out an improvement below
        b, L, a = direction
        far = leaving(b, a)
        stack.append((b, far, ta + L, c_in, c_in_desc))
        (H,), (h_dir,) = _top(far, 1)
        c3 = l - ta - L - H  # constant deep-branch term through the far end
        # the closed-form edge term of the module docstring
        s = min(max((l - 3 * ta) // 3, 0), L)
        val = max(2 * (ta + s), l - ta - s)
        if c3 >= val:
            val, s = c3, max(0, l - ta - c3)
        if val >= best_val:
            return
        t2 = ta + s

        def maker():
            c2ref = normalize_point(tree, EdgePoint(b, a, Fraction(L - s, den)))
            u1 = min(max(l - t2, 0), (L - s) + H)
            if u1 <= L - s:
                y1 = normalize_point(tree, EdgePoint(b, a, Fraction(L - s - u1, den)))
            else:
                y1 = _descend(tree, Vertex(b), h_dir, u1 - (L - s), den)
            y3 = inner_witness(c_in_desc if c_in <= max(l - t2, 0) else ("free", t2, c2ref))
            return (y1, c2ref, y3)

        consider(val, maker, host=(a, b) if start == Vertex(a) else None)

    for _reach, d in leave0:
        i = 1 if dirs0[0] == d else 0  # the deepest other branch at x
        step(x, d, 0, _g(0, vals0[i], l), ("branch", x, 0, dirs0[i], vals0[i]))

    while stack:
        c2, leave, t2, in_val, in_desc = stack.pop()
        if 2 * t2 >= best_val:
            continue  # t2 only grows below c2, and every config costs 2 t2
        C2 = Vertex(c2)
        vals, dirs = _top(leave, 3)
        free_val = max(l - t2, 0)
        third_val = _g(t2, vals[2], l)
        F = max(2 * t2, _g(t2, vals[1], l), min(in_val, free_val, third_val))

        def vertex_maker(C2=C2, t2=t2, vals=vals, dirs=dirs, in_val=in_val,
                         in_desc=in_desc, free_val=free_val, third_val=third_val):
            depth = max(l - t2, 0)
            y1 = _descend(tree, C2, dirs[0], min(depth, vals[0]), den)
            y2 = _descend(tree, C2, dirs[1], min(depth, vals[1]), den)
            m = min(in_val, free_val, third_val)
            if third_val == m:
                y3 = inner_witness(("branch", C2, t2, dirs[2], vals[2]))
            elif in_val == m:
                y3 = inner_witness(in_desc)
            else:
                y3 = inner_witness(("free", t2, C2))
            return (y1, y2, y3)

        consider(F, vertex_maker)

        for _reach, d in leave:
            i = 1 if dirs[0] == d else 0  # the deepest branch off the path
            branch_val = _g(t2, vals[i], l)
            if branch_val < in_val:
                step(C2, d, t2, branch_val, ("branch", C2, t2, dirs[i], vals[i]))
            else:
                step(C2, d, t2, in_val, in_desc)

    return best_val, den, best_maker, best_host


def _psi_at(tree: TreeSkeleton, r: Fraction, x: PointRef):
    """Exact psi at a normalized point; returns (value, witness triple, host)."""
    n, den, maker, host = _psi_walk(tree, r, x)
    return Fraction(n, den), maker(), host


def psi_at(tree: TreeSkeleton, x: PointRef, r) -> Fraction:
    """Exact branching deficiency at a point."""
    return Fraction(*_psi_walk(tree, as_rat(r), normalize_point(tree, x))[:2])


def psi_at_with_witness(tree: TreeSkeleton, x: PointRef, r):
    """Exact psi plus an optimal witness triple (points of the given tree)."""
    val, wits, _host = _psi_at(tree, as_rat(r), normalize_point(tree, x))
    return val, wits


def psi_objective(tree: TreeSkeleton, x: PointRef, r, witnesses) -> Fraction:
    """The raw objective of a concrete witness triple."""
    r = as_rat(r)
    l = r - distance(tree, x, Vertex(tree.basepoint))
    ds = [distance(tree, x, w) for w in witnesses]
    val = max(abs(d - l) for d in ds)
    for i in range(3):
        for j in range(i + 1, 3):
            val = max(val, ds[i] + ds[j] - distance(tree, witnesses[i], witnesses[j]))
    return val


def psi_grid_oracle(tree: TreeSkeleton, x: PointRef, r, mesh) -> Fraction:
    """Brute-force psi over witness triples drawn from a grid.

    Independent of the exact evaluator; satisfies
    ``psi_at(x) <= oracle(x) <= psi_at(x) + 2 * mesh``.
    """
    r = as_rat(r)
    mesh = as_rat(mesh)
    x = normalize_point(tree, x)
    l = r - distance(tree, x, Vertex(tree.basepoint))
    pts = grid_points(tree, mesh, anchors=(x,))
    dx = [distance(tree, x, q) for q in pts]
    best = min(max(abs(d - l), 2 * d) for d in dx)  # triples (y, y, y)
    ranked = sorted(range(len(pts)), key=lambda i: (abs(dx[i] - l), dx[i]))
    pair_cache: dict[tuple[int, int], Fraction] = {}

    def pd(i: int, j: int) -> Fraction:
        key = (i, j) if i <= j else (j, i)
        val = pair_cache.get(key)
        if val is None:
            val = distance(tree, pts[key[0]], pts[key[1]])
            pair_cache[key] = val
        return val

    n = len(ranked)
    for ii in range(n):
        i = ranked[ii]
        ai = abs(dx[i] - l)
        if ai >= best:
            break
        for jj in range(ii, n):
            j = ranked[jj]
            aj = abs(dx[j] - l)
            if aj >= best:
                break
            base = max(ai, aj, dx[i] + dx[j] - pd(i, j))
            if base >= best:
                continue
            for kk in range(jj, n):
                k = ranked[kk]
                ak = abs(dx[k] - l)
                if ak >= best:
                    break
                val = max(
                    base,
                    ak,
                    dx[i] + dx[k] - pd(i, k),
                    dx[j] + dx[k] - pd(j, k),
                )
                if val < best:
                    best = val
    return best


# -- exact supremum over the whole tree -------------------------------------------


def _linear(tree: TreeSkeleton, edge, n0: int, n1: int, d: int) -> PL:
    """The linear function from ``n0 / d`` at the edge's first endpoint to
    ``n1 / d`` at its second, the edge's length read off the integer heights."""
    _, num, _, D = tree._root_data()
    e = lcm(D, d)
    ln = abs(num[edge[0]] - num[edge[1]]) * (e // D)
    return _pl(e, (0, ln), (n0 * (e // d), n1 * (e // d)))


def _reach_profile(tree: TreeSkeleton, edge, r: Fraction) -> PL:
    """``l = r - d(p, x)`` as a PL function of the edge offset; the edge
    joins a node to its parent, so ``d(p, x)`` is linear along it."""
    _, num, _, D = tree._root_data()
    rn, q = r.numerator * D, r.denominator
    return _linear(tree, edge, rn - num[edge[0]] * q, rn - num[edge[1]] * q, D * q)


def _certificate_profile(tree: TreeSkeleton, edge, lfun: PL, witnesses) -> PL:
    """Objective of a fixed witness triple as a PL function of the edge
    offset, given the edge's reach profile ``lfun``; a valid upper bound for
    psi along the whole edge."""
    witnesses = [normalize_point(tree, w) for w in witnesses]
    profs = [distance_profile(tree, edge, w) for w in witnesses]
    terms = [abs(prof.sub(lfun)) for prof in profs]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        _, hi, _, hj, m, d = _meet(tree, witnesses[i], witnesses[j])
        dij = hi + hj - 2 * m
        terms.append(profs[i].add(profs[j]).sub(_linear(tree, edge, dij, dij, d)))
    return reduce(PL.max_with, terms)


def _family_certificate(tree: TreeSkeleton, edge, lfun: PL, a: str, b: str, lo: PL) -> PL:
    """Exact value, along the edge, of the config family whose outer split
    slides toward ``b`` over a host ray that ends with the tree edge
    ``a``-``b``, at distances ``t2`` from ``lo`` up to ``D = d(x, b)``;
    ``lfun`` is the edge's reach profile ``l = r - d(p, x)``.

    For a sliding split at distance ``t2`` the best objective is
    ``phi(t2) = max(2 t2, |t2 - l|, c3)`` with ``c3 = l - D - H`` (deep
    witness through ``b`` into its largest reach ``H`` away from ``a``,
    second witness at the split, third on the path).  At a fixed edge
    offset ``phi`` is convex in ``t2`` and ``c3`` does not depend on it,
    so its minimum over ``[lo, D]`` is at the clamp of its minimizer: for
    ``l >= 0`` that is ``l/3``, where ``2 t2 = l - t2``; for ``l < 0``
    ``phi`` is nondecreasing on ``t2 >= 0`` and ``l/3`` clamps to
    ``lo >= 0``.  So the family's value at every offset is ``phi`` at
    ``l/3`` clamped by ``max(lo)``, ``min(D)``, ``max(0)`` in that order
    (if ``lo > D`` every split clamps to ``D``).  The result upper-bounds
    psi everywhere on the edge and captures the fractional-slope envelope
    pieces that frozen witness triples cannot.
    """
    zero = _linear(tree, edge, 0, 0, 1)
    D = distance_profile(tree, edge, Vertex(b))
    table = tree._reach_num()
    H = max((table[(b, z)] for z in tree.neighbors(b) if z != a), default=0)
    c3 = lfun.sub(D).sub(_linear(tree, edge, H, H, tree._root_data()[3]))
    t2 = lfun.scale(Fraction(1, 3)).max_with(lo).min_with(D).max_with(zero)
    return t2.scale(Fraction(2)).max_with(abs(t2.sub(lfun))).max_with(c3)


def rb_deficiency(tree: TreeSkeleton, r, max_refinements_per_edge: int = 200) -> Fraction:
    """Exact sup of psi over the induced real tree.

    Vertices are scanned directly.  On each edge, an upper envelope made of
    witness-triple certificates and sliding-split family certificates is
    refined at its argmax until it matches the best exact sample.

    Every witness objective is 2-Lipschitz in ``x``, so psi is, and the
    triple ``(x, x, x)`` gives ``psi(x) <= l(x)``.  So on an edge ``u``-``v``
    of length ``L``, psi is at most ``min(a + 2L, b + 2L, (a + b)/2 + L,
    r - min(d(p, u), d(p, v)))`` with ``a = psi(u)``, ``b = psi(v)`` (past
    the radius sphere the tent runs through the sphere point, where psi is
    0 as scanned).  Edges are refined in decreasing order of that cap, up to
    the first whose cap does not exceed the sup found.  A vertex's witness
    triple is built only for an edge that is refined.
    """
    r = as_rat(r)
    if not tree.edges():
        return psi_at(tree, Vertex(tree.basepoint), r)

    tree._reach_num()  # raises if a node is not connected to the basepoint
    _, num, _, D = tree._root_data()
    V = 3 * lcm(D, r.denominator)
    k, rv = V // D, r.numerator * (V // r.denominator)
    vals, makers = {}, {}
    for node in tree.nodes():
        if rv <= num[node] * k:
            vals[node], makers[node] = 0, lambda key=Vertex(node): (key, key, key)
        else:
            vals[node], _, makers[node], _ = _psi_walk(tree, r, Vertex(node))
    best = Fraction(max(vals.values()), V)

    def cap(edge) -> int:
        """The cap on psi along the edge, over ``2 V``."""
        u, v, _ = edge
        a, b, length = vals[u], vals[v], abs(num[u] - num[v]) * k
        near = min(num[u], num[v]) * k
        return min(2 * min(a, b) + 4 * length, a + b + 2 * length, 2 * (rv - near))

    for bound_cap, (u, v, length) in sorted(
        ((cap(e), e) for e in tree.edges()), key=lambda item: item[0], reverse=True
    ):
        if bound_cap * best.denominator <= best.numerator * 2 * V:
            break  # no later edge can raise the sup either
        zero = _linear(tree, (u, v), 0, 0, 1)
        lfun = _reach_profile(tree, (u, v), r)
        bound_pl = _certificate_profile(tree, (u, v), lfun, makers[u]()).min_with(
            _certificate_profile(tree, (u, v), lfun, makers[v]())
        )
        # sliding families along the edge itself, in both directions
        for a, b in ((u, v), (v, u)):
            bound_pl = bound_pl.min_with(_family_certificate(tree, (u, v), lfun, a, b, zero))

        seen_hosts: set[tuple[str, str]] = set()
        steps = 0
        while True:
            bound, arg = bound_pl.argmax()
            if bound <= best:
                break
            steps += 1
            if steps > max_refinements_per_edge:
                raise RuntimeError(
                    f"deficiency refinement did not converge on edge {u}-{v}"
                )
            if arg <= 0 or arg >= length:
                break  # endpoint bound equals an exact sample <= best
            val, wits, host = _psi_at(tree, r, point_on_edge(tree, u, v, arg))
            if val > best:
                best = val
            bound_pl = bound_pl.min_with(
                _certificate_profile(tree, (u, v), lfun, wits)
            )
            if host is not None and host not in seen_hosts:
                seen_hosts.add(host)
                lo_pl = distance_profile(tree, (u, v), Vertex(host[0]))
                bound_pl = bound_pl.min_with(
                    _family_certificate(tree, (u, v), lfun, *host, lo_pl)
                )
    return best
