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
that carries the best inner option along the path; for ``c2`` interior to
an edge every term is linear in the offset, so the objective is the upper
envelope of a few lines, built exactly with the ``rtrees.pl`` kernel, and
its leftmost argmin is the best split on that edge.  Every configuration
costs at least the cross term ``2 t2``, which only grows along the walk,
so the walk stops below a split, and skips an edge, once ``2 t2`` reaches
the best value found.  A point inside an edge is evaluated in place as a
degree-2 vertex: its two reaches come from the reach table of the edge's
endpoints, and the walk, its witnesses and the host edge stay in the
given tree, which is never copied.

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
from typing import Optional

from .rationals import as_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    TreeSkeleton,
    Vertex,
    distance,
    grid_points,
    normalize_point,
    point_on_edge,
    point_on_segment,
)
from .pl import PL, distance_profile


def _g(t: Fraction, reach: Fraction, l: Fraction) -> Fraction:
    """Best branch term for a witness hung at distance t into given reach."""
    return max(t - l, l - t - reach, Fraction(0))


def _leaving(tree: TreeSkeleton, x: PointRef):
    """``(reach, direction)`` for every direction leaving the normalized point
    ``x``.  A direction is ``(next node, distance to it, node it is entered
    from)``; an edge point is a degree-2 vertex whose two reaches are read off
    the table of its edge."""
    table = tree.directional_reach()
    if isinstance(x, Vertex):
        return [
            (table[(x.node, nb)], (nb, tree.edge_length(x.node, nb), x.node))
            for nb in tree.neighbors(x.node)
        ]
    rest = tree.edge_length(x.u, x.v) - x.offset
    return [
        (table[(x.v, x.u)] - rest, (x.u, x.offset, x.v)),
        (table[(x.u, x.v)] - x.offset, (x.v, rest, x.u)),
    ]


def _top(leaving, k: int):
    """The ``k`` largest reaches with their directions, padded with 0 and None."""
    pairs = sorted(leaving, reverse=True)[:k]
    vals = [p[0] for p in pairs] + [Fraction(0)] * k
    dirs: list = [p[1] for p in pairs] + [None] * k
    return vals[:k], dirs[:k]


def _descend(tree: TreeSkeleton, x: PointRef, direction, depth: Fraction) -> PointRef:
    """The point at the given depth along a maximal-reach path that leaves
    ``x`` in the given direction."""
    if depth == 0 or direction is None:
        return x
    table = tree.directional_reach()
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
        length = tree.edge_length(cur, nxt)
    return normalize_point(tree, EdgePoint(nxt, cur, length - rem))


def _psi_at(tree: TreeSkeleton, r: Fraction, x: PointRef):
    """Exact psi at a normalized point; returns (value, witness triple, host).

    The host edge is ``(a, b)`` (``a`` nearer ``x``) when the optimum is
    attained with the outer split strictly inside that tree edge, else None.
    """
    zero = Fraction(0)
    l = r - distance(tree, x, Vertex(tree.basepoint))
    if l < 0:
        raise ValueError("point lies outside the radius bound")
    if l == 0:
        return zero, (x, x, x), None

    def inner_witness(desc):
        if desc[0] == "free":
            _, t2, c2ref = desc
            return point_on_segment(tree, x, c2ref, min(l, t2))
        _, start, t1, direction, reach = desc
        return _descend(tree, start, direction, min(max(l - t1, zero), reach))

    # config c2 = x: witnesses into the three deepest branches at x itself
    leave0 = _leaving(tree, x)
    vals0, dirs0 = _top(leave0, 3)
    best_val = _g(zero, vals0[2], l)

    def root_witnesses():
        return tuple(_descend(tree, x, dirs0[i], min(l, vals0[i])) for i in range(3))

    best_maker = root_witnesses
    best_host: Optional[tuple[str, str]] = None

    def consider(val, maker, host=None):
        nonlocal best_val, best_maker, best_host
        if val < best_val:
            best_val = val
            best_maker = maker
            best_host = host

    def edge_interior(start: PointRef, direction, ta: Fraction, c_in: Fraction, c_in_desc):
        """Configs with the outer split strictly inside the segment that leaves
        ``start`` (at distance ``ta`` from x) in the given direction."""
        if 2 * ta >= best_val:
            return  # the cross term alone rules out an improvement
        b, L, a = direction
        (H,), (h_dir,) = _top([p for p in _leaving(tree, Vertex(b)) if p[1][0] != a], 1)
        c3 = l - ta - L - H  # constant deep-branch term through the far end
        # objective at t2 = ta + s: max(2 t2, |t2 - l|, max(t2 - l, c3, 0),
        # min(c_in, max(l - t2, 0))); as t2 >= 0 and l > 0 every term but c3
        # is at most max(2 t2, l - t2), so it is the upper envelope of three
        # lines, and its leftmost argmin is the first optimal offset
        envelope = PL((zero, L), (2 * ta, 2 * (ta + L))).max_with(
            PL((zero, L), (l - ta, l - ta - L))
        ).max_with(PL.const(zero, L, c3))
        val, s = envelope.argmin()
        if val >= best_val:
            return
        t2 = ta + s

        def maker():
            c2ref = normalize_point(tree, EdgePoint(b, a, L - s))
            u1 = min(max(l - t2, zero), (L - s) + H)
            if u1 <= L - s:
                y1 = normalize_point(tree, EdgePoint(b, a, L - s - u1))
            else:
                y1 = _descend(tree, Vertex(b), h_dir, u1 - (L - s))
            if c_in <= max(l - t2, zero):
                y3 = inner_witness(c_in_desc)
            else:
                y3 = inner_witness(("free", t2, c2ref))
            return (y1, c2ref, y3)

        consider(val, maker, host=(a, b) if start == Vertex(a) else None)

    # depth-first walk over vertex positions of the outer split, carrying the
    # best inner (third-witness) option found along the path from x
    stack = []

    def step(start, direction, ta, in_val, in_desc):
        edge_interior(start, direction, ta, in_val, in_desc)
        b, L, a = direction
        stack.append((b, a, ta + L, in_val, in_desc))

    for _reach, d in leave0:
        i = 1 if dirs0[0] == d else 0  # the deepest other branch at x
        step(x, d, zero, _g(zero, vals0[i], l), ("branch", x, zero, dirs0[i], vals0[i]))

    while stack:
        c2, parent, t2, in_val, in_desc = stack.pop()
        if 2 * t2 >= best_val:
            continue  # t2 only grows below c2, and every config costs 2 t2
        C2 = Vertex(c2)
        leave = [p for p in _leaving(tree, C2) if p[1][0] != parent]
        vals, dirs = _top(leave, 3)
        free_val = max(l - t2, zero)
        third_val = _g(t2, vals[2], l)
        inner_best = min(in_val, free_val, third_val)
        F = max(2 * t2, _g(t2, vals[1], l), inner_best)

        def vertex_maker(C2=C2, t2=t2, vals=vals, dirs=dirs, in_val=in_val,
                         in_desc=in_desc, free_val=free_val, third_val=third_val):
            depth = max(l - t2, zero)
            y1 = _descend(tree, C2, dirs[0], min(depth, vals[0]))
            y2 = _descend(tree, C2, dirs[1], min(depth, vals[1]))
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

    return best_val, best_maker(), best_host


def psi_at(tree: TreeSkeleton, x: PointRef, r) -> Fraction:
    """Exact branching deficiency at a point."""
    return psi_at_with_witness(tree, x, r)[0]


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


def _reach_profile(tree: TreeSkeleton, edge, r: Fraction) -> PL:
    """``l = r - d(p, x)`` as a PL function of the edge offset."""
    pp = distance_profile(tree, edge, Vertex(tree.basepoint))
    return PL.const(Fraction(0), tree.edge_length(*edge), r).sub(pp)


def _certificate_profile(tree: TreeSkeleton, edge, lfun: PL, witnesses) -> PL:
    """Objective of a fixed witness triple as a PL function of the edge
    offset, given the edge's reach profile ``lfun``; a valid upper bound for
    psi along the whole edge."""
    length = tree.edge_length(*edge)
    profs = [distance_profile(tree, edge, w) for w in witnesses]
    terms = [abs(prof.sub(lfun)) for prof in profs]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        dij = distance(tree, witnesses[i], witnesses[j])
        terms.append(profs[i].add(profs[j]).sub(PL.const(Fraction(0), length, dij)))
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
    length = tree.edge_length(*edge)
    zero = PL.const(Fraction(0), length, Fraction(0))
    D = distance_profile(tree, edge, Vertex(b))
    H = (tree.reaches_at(b, exclude=(a,)) or [Fraction(0)])[0]
    c3 = lfun.sub(D).sub(PL.const(Fraction(0), length, H))
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
    the first whose cap does not exceed the sup found.
    """
    r = as_rat(r)
    if not tree.edges():
        return psi_at(tree, Vertex(tree.basepoint), r)

    cache: dict[str, tuple[Fraction, tuple]] = {}

    def eval_vertex(node: str):
        got = cache.get(node)
        if got is None:
            key = Vertex(node)
            if r <= tree.dist_to_basepoint(node):
                got = (Fraction(0), (key, key, key))
            else:
                got = _psi_at(tree, r, key)[:2]
            cache[node] = got
        return got

    best = max(eval_vertex(node)[0] for node in tree.nodes())

    def cap(edge) -> Fraction:
        u, v, length = edge
        a, b = eval_vertex(u)[0], eval_vertex(v)[0]
        near = min(tree.dist_to_basepoint(u), tree.dist_to_basepoint(v))
        return min(min(a, b) + 2 * length, (a + b) / 2 + length, r - near)

    for bound_cap, (u, v, length) in sorted(
        ((cap(e), e) for e in tree.edges()), key=lambda item: item[0], reverse=True
    ):
        if bound_cap <= best:
            break  # no later edge can raise the sup either
        zero = PL.const(Fraction(0), length, Fraction(0))
        lfun = _reach_profile(tree, (u, v), r)
        val_u, wit_u = eval_vertex(u)
        val_v, wit_v = eval_vertex(v)
        bound_pl = _certificate_profile(tree, (u, v), lfun, wit_u).min_with(
            _certificate_profile(tree, (u, v), lfun, wit_v)
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
