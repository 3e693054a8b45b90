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
``max(2 (ta + s), l - ta - s, c3)``, least at ``s*``, the clamp of
``(l - 3 ta) / 3`` to ``[0, L]``, with the edge term below as its value.
Every configuration costs at least the cross term ``2 t2``, which only
grows along the walk, so the walk stops below a split, and skips an edge,
once ``2 t2`` reaches the best value found.  A point inside an edge is
evaluated in place as a degree-2 vertex: its two reaches come from the
reach table of the edge's endpoints, and the walk and its witnesses stay
in the given tree, which is never copied.

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
directly.  Edges are visited in decreasing order of a cap on psi, and the
scan stops at the first edge whose cap does not beat the sup: every witness
objective is 2-Lipschitz in ``x``, so psi is, and the triple ``(x, x, x)``
gives ``psi(x) <= l``; so psi on an edge is at most the 2-Lipschitz tent
over its endpoint values and at most ``r`` minus its nearer endpoint's
depth.  On a visited edge the walk runs once for all its points.  At offset
``z``, ``l``, every ``t_i`` and the two reaches at ``x`` are linear in
``z``, and the walk meets the same configurations for every ``z``; so psi
on the edge is their lower envelope, of near-linear size (Sharir and
Agarwal, *Davenport-Schinzel Sequences*, 1995).  Its domain is the offsets
with ``l >= 0``: an edge that crosses the radius sphere is cut at the
sphere point, and one wholly past it is skipped.  There three identities
make every configuration a max or min of lines in ``z``:

* Edge term: ``min over s in [0, L] of max(2 (ta + s), l - ta - s) =
  max(2 ta, 2 l / 3, l - ta - L)``.  The two lines cross at ``s*``, at
  ``2 l / 3``.  If ``0 <= s* <= L`` the min is ``2 l / 3``, and ``s* >= 0``
  gives ``2 ta <= 2 l / 3``, ``s* <= L`` gives ``l - ta - L <= 2 l / 3``.
  If ``s* < 0`` it is ``2 ta``, at ``s = 0``, above ``2 l / 3`` and
  ``l - ta``; if ``s* > L`` it is ``l - ta - L``, at ``s = L``, above
  ``2 l / 3`` and ``2 (ta + L)``.  The deep-branch constant
  ``c3 = l - ta - L - H <= l - ta - L`` never exceeds it, and equals it
  only when ``H = 0`` and ``s* >= L``, so it moves neither value nor split.
* Branch terms: each ``g(t, R, l) = max(t - l, l - t - R, 0)`` has
  ``t <= t2`` and sits under ``max(2 t2, .)``, directly or through a min.
  Max distributes over min, and ``max(t - l, 0) <= 2 t2`` for ``l >= 0``,
  so only ``l - t - R`` matters.
* Vertex config: with ``v0 >= v1 >= v2`` the reaches off the path at ``c2``
  (0 where missing), ``min(free, third) = max(l - t2 - v2, 0)``, as both
  are 0 for ``t2 >= l`` and else ``third = max(l - t2 - v2, 0) <= l - t2 =
  free``.  So ``F = max(2 t2, l - t2 - v1, min(in, l - t2 - v2))``, with
  ``in`` the min of the path's terms ``l - t1 - R``.

As in the walk, a vertex or edge is cut where ``2 t2`` is at least the
envelope at every offset, and the walk stops once the envelope, which only
falls, is at most the sup found; so the envelope is psi wherever psi
exceeds that sup.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rationals import as_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    TreeSkeleton,
    Vertex,
    _leaving,
    _leaving_point,
    _rooted,
    distance,
    grid_points,
    normalize_point,
    point_on_segment,
)
from .pl import PL, _pl


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
    scale = den // tree._root_data()[3]
    nxt, length, cur = direction
    rem = depth
    while rem > length:
        rem -= length
        leave = _leaving(tree, nxt, cur, scale)
        if not leave:
            raise AssertionError("descent ran past a leaf")
        _, (nxt, length, cur) = max(leave, key=lambda pair: pair[0])  # the first deepest
    return normalize_point(tree, EdgePoint(nxt, cur, Fraction(length - rem, den)))


def _psi_walk(tree: TreeSkeleton, r: Fraction, x: PointRef):
    """Exact psi at a normalized point as ``(n, den, maker)``: the value is
    ``n / den``, and ``maker()`` builds an optimal witness triple."""
    parent, num, _, D = tree._spanning_data()
    _, h, hd = _rooted(parent, num, D, x)
    den = 3 * lcm(hd, r.denominator)
    l = r.numerator * (den // r.denominator) - h * (den // hd)
    if l < 0:
        raise ValueError("point lies outside the radius bound")
    if l == 0:
        return 0, den, lambda: (x, x, x)
    scale = den // D

    def inner_witness(desc):
        if desc[0] == "free":
            _, t2, c2ref = desc
            return point_on_segment(tree, x, c2ref, Fraction(min(l, t2), den))
        _, start, t1, direction, reach = desc
        return _descend(tree, start, direction, min(max(l - t1, 0), reach), den)

    # config c2 = x: witnesses into the three deepest branches at x itself
    leave0 = _leaving_point(tree, x, den)
    vals0, dirs0 = _top(leave0, 3)
    best_val = _g(0, vals0[2], l)

    def root_witnesses():
        return tuple(_descend(tree, x, dirs0[i], min(l, vals0[i]), den) for i in range(3))

    best_maker = root_witnesses

    def consider(val, maker):
        nonlocal best_val, best_maker
        if val < best_val:
            best_val, best_maker = val, maker

    # depth-first walk over vertex positions of the outer split, carrying the
    # best inner (third-witness) option found along the path from x
    stack = []

    def step(direction, ta: int, c_in: int, c_in_desc):
        """Push the far end of the segment that leaves a point at distance
        ``ta`` from x in the given direction, and consider the configs with
        the outer split strictly inside it."""
        if 2 * ta >= best_val:
            return  # the cross term alone rules out an improvement below
        b, L, a = direction
        far = _leaving(tree, b, a, scale)
        stack.append((b, far, ta + L, c_in, c_in_desc))
        val = max(2 * ta, 2 * l // 3, l - ta - L)  # the edge term
        if val >= best_val:
            return

        def maker():
            (H,), (h_dir,) = _top(far, 1)  # the deep witness goes through b
            s = min(max((l - 3 * ta) // 3, 0), L)
            t2 = ta + s
            c2ref = normalize_point(tree, EdgePoint(b, a, Fraction(L - s, den)))
            u1 = min(max(l - t2, 0), (L - s) + H)
            if u1 <= L - s:
                y1 = normalize_point(tree, EdgePoint(b, a, Fraction(L - s - u1, den)))
            else:
                y1 = _descend(tree, Vertex(b), h_dir, u1 - (L - s), den)
            y3 = inner_witness(c_in_desc if c_in <= max(l - t2, 0) else ("free", t2, c2ref))
            return (y1, c2ref, y3)

        consider(val, maker)

    for _reach, d in leave0:
        i = 1 if dirs0[0] == d else 0  # the deepest other branch at x
        step(d, 0, _g(0, vals0[i], l), ("branch", x, 0, dirs0[i], vals0[i]))

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
                step(d, t2, branch_val, ("branch", C2, t2, dirs[i], vals[i]))
            else:
                step(d, t2, in_val, in_desc)

    return best_val, den, best_maker


def psi_at(tree: TreeSkeleton, x: PointRef, r) -> Fraction:
    """Exact branching deficiency at a point."""
    return Fraction(*_psi_walk(tree, as_rat(r), normalize_point(tree, x))[:2])


def psi_at_with_witness(tree: TreeSkeleton, x: PointRef, r):
    """Exact psi plus an optimal witness triple (points of the given tree)."""
    n, den, maker = _psi_walk(tree, as_rat(r), normalize_point(tree, x))
    return Fraction(n, den), maker()


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


def _edge_sup(tree: TreeSkeleton, r: Fraction, u: str, v: str, best: Fraction):
    """psi along the edge ``u``-``v`` as a ``PL`` of the offset from ``u``,
    over the offsets with ``l >= 0``, or None if there are none: the lower
    envelope of ``_psi_walk``'s configurations for every point of the edge at
    once (see the module docstring).  Walking stops once the envelope is at
    most ``best``, so the result is psi wherever psi exceeds ``best``."""
    parent, num, _, D = tree._root_data()
    table = tree._reach_num()
    den = 3 * lcm(D, r.denominator)
    scale = den // D
    length = abs(num[u] - num[v]) * scale
    l0 = r.numerator * (den // r.denominator) - num[u] * scale  # l at u
    sl = -1 if parent.get(v) == u else 1  # l = l0 + sl * offset
    lo, hi = (0, min(length, l0)) if sl < 0 else (max(0, -l0), length)
    if lo >= hi:
        return None

    # a distance from x is ``(c, s)``: ``c + s * offset``, over den
    def line(c: int, s: int) -> PL:
        return _pl(den, (lo, hi), (c + s * lo, c + s * hi))

    def cut(c: int, s: int) -> bool:
        """Whether the line ``2 (c, s)`` is at least the envelope at its breakpoints."""
        d = env.d
        return all(2 * (c * d + s * x * den) >= y * den for x, y in zip(env.xn, env.yn))

    two_l3 = _pl(den, (lo, hi), (2 * (l0 + sl * lo) // 3, 2 * (l0 + sl * hi) // 3))

    def edge_term(ta, tb) -> PL:
        """The edge term for an edge from distance ``ta`` to ``tb``."""
        return line(2 * ta[0], 2 * ta[1]).max_with(two_l3).max_with(line(l0 - tb[0], sl - tb[1]))

    # c2 = x, where the third reach is 0, and the half-edges at x, each with
    # the other one's reach as the inner option; 2 t2 = 0 cuts neither
    env = line(l0, sl).min_with(edge_term((0, 0), (0, 1)))
    env = env.min_with(edge_term((0, 0), (length, -1)))
    stack = [
        (u, v, (0, 1), line(l0 - table[(u, v)] * scale, sl + 1)),
        (v, u, (length, -1), line(l0 - table[(v, u)] * scale + length, sl - 1)),
    ]
    while stack and max(env.yn) * best.denominator > best.numerator * env.d:
        b, a, t2, inner = stack.pop()
        if cut(*t2):
            continue
        leave = _leaving(tree, b, a, scale)
        vals, dirs = _top(leave, 3)
        c, s = l0 - t2[0], sl - t2[1]  # l - t2; a branch term is l - t2 - R
        config = inner.min_with(line(c - vals[2], s)).max_with(line(2 * t2[0], 2 * t2[1]))
        env = env.min_with(config.max_with(line(c - vals[1], s)))
        inners = {}
        for _reach, d in leave:
            if cut(*t2):
                break  # 2 t2 bounds every config on and below the edges left
            i = 1 if dirs[0] == d else 0  # the deepest branch off the path
            if i not in inners:
                inners[i] = inner.min_with(line(c - vals[i], s))
            tb = (t2[0] + d[1], t2[1])
            stack.append((d[0], b, tb, inners[i]))
            env = env.min_with(edge_term(t2, tb))
    return env


def rb_deficiency(tree: TreeSkeleton, r) -> Fraction:
    """Exact sup of psi over the induced real tree.

    Vertices are scanned directly.  On an edge ``u``-``v`` of length ``L``
    psi is at most ``min(a + 2L, b + 2L, (a + b)/2 + L, r - min(d(p, u),
    d(p, v)))`` with ``a = psi(u)``, ``b = psi(v)`` (past the radius sphere
    the tent runs through the sphere point, where psi is 0 as scanned).
    Edges are visited in decreasing order of that cap until it no longer
    beats the sup found.  On a visited edge psi is one exact lower envelope
    over the offsets with ``l >= 0``, made of lines by the three identities
    of the module docstring (``_edge_sup``); its max is the edge's sup.
    """
    r = as_rat(r)
    _, num, _, D = tree._spanning_data()
    if not tree.edges():
        return psi_at(tree, Vertex(tree.basepoint), r)
    V = 3 * lcm(D, r.denominator)
    k, rv = V // D, r.numerator * (V // r.denominator)
    vals = {
        node: 0 if rv <= num[node] * k else _psi_walk(tree, r, Vertex(node))[0]
        for node in tree.nodes()
    }
    best = Fraction(max(vals.values()), V)

    def cap(edge) -> int:
        """The cap on psi along the edge, over ``2 V``."""
        u, v, _ = edge
        a, b, length = vals[u], vals[v], abs(num[u] - num[v]) * k
        near = min(num[u], num[v]) * k
        return min(2 * min(a, b) + 4 * length, a + b + 2 * length, 2 * (rv - near))

    for bound_cap, (u, v, _length) in sorted(
        ((cap(e), e) for e in tree.edges()), key=lambda item: item[0], reverse=True
    ):
        if bound_cap * best.denominator <= best.numerator * 2 * V:
            break  # no later edge can raise the sup either
        env = _edge_sup(tree, r, u, v, best)
        if env is not None:
            best = max(best, Fraction(max(env.yn), env.d))
    return best
