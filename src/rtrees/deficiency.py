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
direction table's entries for the edge's endpoints, and the walk and its
witnesses stay in the given tree, which is never copied.

The walk runs on integers over one denominator ``den = 3 lcm(D q, r_d)``:
``D`` is the skeleton's height denominator, ``q`` that of ``x``'s offset
and ``r_d`` that of ``r``; the factor 3 makes ``l / 3`` integral.  Lengths
and reaches come from the skeleton's direction table: for each node, filled
on its first read, every direction leaving it as ``(reach, neighbour,
length)`` over ``D``, in neighbour-id order, and the same directions
deepest first, so a visit sorts nothing.  ``x`` itself is the walk's first
vertex, with an inner option dearer than any configuration, so that its
vertex configuration is ``c2 = x``.  The walk records its best
configuration as a plain tuple, and :func:`_witness` turns that record into
``Fraction`` points; ``psi_at`` never calls it.

``psi_grid_oracle`` is the independent brute-force check: the same
infimum restricted to witness triples on a finite grid.  It never
undercuts the exact value and exceeds it by at most ``2 * mesh``.

``rb_deficiency`` computes sup_x psi(x) exactly.  Vertices are scanned
directly, and one whose third-largest reach is at least its ``l`` is read
as 0 off the direction table, with no walk: the config ``c2 = v`` costs
``g(0, R3, l) = 0``.  Edges are visited in decreasing order of a cap on
psi, and the scan stops at the first edge whose cap does not beat the sup:
every witness objective is 2-Lipschitz in ``x``, so psi is, and the triple
``(x, x, x)`` gives ``psi(x) <= l``; so psi on an edge is at most the
2-Lipschitz tent over its endpoint values and at most ``r`` minus its
nearer endpoint's depth.  A visited edge is profiled only if the tent and
the configs at ``x`` that the envelope below starts from, ``max(2 l / 3,
l - max(d(x, u), d(x, v)))``, both beat the sup at some point of it; on a
bare edge of length ``L`` hung to the sphere from a vertex of psi 0 the
lesser of the two is at most ``L / 2``.  On a profiled edge the walk runs
once for all its points.  At offset ``z``, ``l``, every ``t_i`` and the
two reaches at ``x`` are linear in ``z``, and the walk meets the same
configurations for every ``z``; so psi on the edge is their lower
envelope, of near-linear size (Sharir and Agarwal, *Davenport-Schinzel
Sequences*, 1995).  Its domain is the offsets with ``l >= 0``: an edge
that crosses the radius sphere is cut at the sphere point, and one wholly
past it is skipped.  There three identities make every configuration a
max or min of lines in ``z``:

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

The walk carries ``in`` as a tuple of lines and builds each configuration
from its lines in one pass of ``pl.envelope``, the max of some lines and
the min of others; only psi's envelope is a merged ``PL``.  As in the
walk, a vertex or edge is cut where ``2 t2`` is at least the envelope at
every offset, and the walk stops once the envelope, which only falls, is
at most the sup found; so the envelope is psi wherever psi exceeds it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter

from .rationals import as_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    TreeSkeleton,
    Vertex,
    _leaving_point,
    _rooted,
    distance,
    grid_points,
    normalize_point,
    point_on_segment,
)
from .pl import PL, envelope


_PAD = [(0, None, 0, None)] * 3  # a missing direction: reach 0, to no neighbour


def _off_path(top, back):
    """The three deepest entries of a direction table's ``top`` but the one
    to ``back``, padded with missing directions."""
    return ([e for e in top if e[1] != back] + _PAD)[:3]


def _descend(tree: TreeSkeleton, x: PointRef, direction, depth: int, den: int) -> PointRef:
    """The point at depth ``depth / den`` along a maximal-reach path that
    leaves ``x`` in the given direction ``(next node, its distance, the node
    it is left from)``, with that distance over ``den`` too."""
    if depth == 0:
        return x
    dirs, k = tree._directions(), den // tree._root_data()[3]
    nxt, length, cur = direction
    rem = depth
    while rem > length:
        rem -= length
        # on through the first deepest direction, in neighbour-id order
        _, nxt, length, cur = max((e for e in dirs[nxt][0] if e[1] != cur), key=itemgetter(0))
        length *= k
    return normalize_point(tree, EdgePoint(nxt, cur, Fraction(length - rem, den)))


def _psi_walk(tree: TreeSkeleton, r: Fraction, x: PointRef):
    """Exact psi at a normalized point as ``(n, den, l, record)``: the value
    is ``n / den``, ``l`` is ``r - d(p, x)`` over ``den``, and
    :func:`_witness` turns ``record`` into an optimal witness triple."""
    parent, num, _, D = tree._spanning_data()
    _, h, hd = _rooted(parent, num, D, x)
    den = 3 * lcm(hd, r.denominator)
    l = r.numerator * (den // r.denominator) - h * (den // hd)
    if l < 0:
        raise ValueError("point lies outside the radius bound")
    if l == 0:
        return 0, den, 0, None
    k, dirs, two_l3 = den // D, tree._directions(), 2 * l // 3
    # x is the first vertex, with an inner option dearer than any config; every
    # later one has 2 t2 < best <= l, so a branch term g(t, R, l) is max(l - t - R, 0)
    nbrs, top, kk = _leaving_point(tree, x, den)
    c2, back, t2, in_val, in_desc = None, None, 0, l + 1, None
    best, record = l + 1, None
    stack = []
    while True:
        # the vertex config max(2 t2, g(t2, R1), min(in, l - t2, g(t2, R2))), by the
        # module docstring's identity, over the reaches R0 >= R1 >= R2 off the path
        (v0, deep, _, _), (v1, _, _, _), (v2, _, _, _) = _off_path(top, back)
        c, v0, v1, v2 = l - t2, v0 * kk, v1 * kk, v2 * kk
        val = max(2 * t2, c - v1, min(in_val, c - v2))
        if val < best:
            best, record = val, ("vertex", c2, back, t2, in_val, in_desc)
        # the configs with the outer split inside an edge below c2, and its far end
        for _reach, nb, L, at in nbrs:
            if nb == back:
                continue
            if 2 * t2 >= best:
                break  # the cross term alone rules out an improvement below
            i = 1 if nb == deep else 0  # the deepest branch off the path
            branch = c - (v1 if i else v0)
            if branch < 0:
                branch = 0
            if branch < in_val:
                c_in, c_desc = branch, (c2, back, t2, i)
            else:
                c_in, c_desc = in_val, in_desc
            L *= kk
            stack.append((nb, at, t2 + L, c_in, c_desc))
            val = max(2 * t2, two_l3, c - L)  # the edge term
            if val < best:
                best, record = val, ("edge", nb, at, L, t2, c_in, c_desc)
        while stack and 2 * stack[-1][2] >= best:
            stack.pop()  # t2 only grows below c2, and every config costs 2 t2
        if not stack:
            return best, den, l, record
        c2, back, t2, in_val, in_desc = stack.pop()
        (nbrs, top), kk = dirs[c2], k


def _witness(tree: TreeSkeleton, x: PointRef, l: int, den: int, record):
    """The witness triple of the configuration that :func:`_psi_walk` at
    ``x`` recorded, as points of the tree."""
    if record is None:
        return (x, x, x)
    dirs, k = tree._directions(), den // tree._root_data()[3]

    def off_path(c2, back):
        """``c2`` as a point (``x`` if None) and its three deepest ``(reach,
        direction)`` off the path, over ``den``; a missing one has reach 0."""
        top, kk = _leaving_point(tree, x, den)[1:] if c2 is None else (dirs[c2][1], k)
        off = [(R * kk, (nb, L * kk, at)) for R, nb, L, at in _off_path(top, back)]
        return (x if c2 is None else Vertex(c2)), off

    def branch(c2, back, t1, i):
        """The third witness in the ``i``-th deepest branch off the path at ``c2``."""
        start, off = off_path(c2, back)
        return _descend(tree, start, off[i][1], min(max(l - t1, 0), off[i][0]), den)

    if record[0] == "vertex":
        _, c2, back, t2, in_val, in_desc = record
        start, off = off_path(c2, back)
        depth = max(l - t2, 0)
        y1, y2 = (_descend(tree, start, d, min(depth, R), den) for R, d in off[:2])
        third_val = max(l - t2 - off[2][0], 0)
        m = min(in_val, depth, third_val)
        if third_val == m:
            return (y1, y2, branch(c2, back, t2, 2))
        if in_val == m:
            return (y1, y2, branch(*in_desc))
        return (y1, y2, point_on_segment(tree, x, start, Fraction(min(l, t2), den)))
    _, b, a, L, ta, c_in, c_desc = record
    _, ((H, h_dir), _, _) = off_path(b, a)  # the deep witness goes through b
    s = min(max((l - 3 * ta) // 3, 0), L)
    t2 = ta + s
    c2ref = normalize_point(tree, EdgePoint(b, a, Fraction(L - s, den)))
    u1 = min(max(l - t2, 0), (L - s) + H)
    if u1 <= L - s:
        y1 = normalize_point(tree, EdgePoint(b, a, Fraction(L - s - u1, den)))
    else:
        y1 = _descend(tree, Vertex(b), h_dir, u1 - (L - s), den)
    if c_in <= max(l - t2, 0):
        return (y1, c2ref, branch(*c_desc))
    return (y1, c2ref, point_on_segment(tree, x, c2ref, Fraction(min(l, t2), den)))


def psi_at(tree: TreeSkeleton, x: PointRef, r) -> Fraction:
    """Exact branching deficiency at a point."""
    return Fraction(*_psi_walk(tree, as_rat(r), normalize_point(tree, x))[:2])


def psi_at_with_witness(tree: TreeSkeleton, x: PointRef, r):
    """Exact psi plus an optimal witness triple (points of the given tree)."""
    x = normalize_point(tree, x)
    n, den, l, record = _psi_walk(tree, as_rat(r), x)
    return Fraction(n, den), _witness(tree, x, l, den, record)


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
    once, each built from lines (see the module docstring).  Walking stops
    once the envelope is at most ``best``: it is psi where psi exceeds it."""
    (parent, num, _, D), dirs = tree._root_data(), tree._directions()
    den = 3 * lcm(D, r.denominator)
    scale = den // D
    length = abs(num[u] - num[v]) * scale
    l0 = r.numerator * (den // r.denominator) - num[u] * scale  # l at u
    sl = -1 if parent.get(v) == u else 1  # l = l0 + sl * offset
    lo, hi = (0, min(length, l0)) if sl < 0 else (max(0, -l0), length)
    if lo >= hi:
        return None

    # a distance from x is ``(c, s)``: ``c + s * offset`` over den; a line, its values at lo, hi
    def line(c: int, s: int):
        return c + s * lo, c + s * hi

    def cut(c: int, s: int) -> bool:
        """Whether the line ``2 (c, s)`` is at least the envelope at its breakpoints."""
        return all(2 * (c * env.d + s * x * den) >= y * den for x, y in zip(env.xn, env.yn))

    two_l3 = (2 * (l0 + sl * lo) // 3, 2 * (l0 + sl * hi) // 3)

    def edge_term(ta, tb) -> PL:  # for an edge from distance ta to tb
        lines = (line(2 * ta[0], 2 * ta[1]), two_l3, line(l0 - tb[0], sl - tb[1]))
        return envelope(den, lo, hi, lines)

    # the configs at x: c2 = x gives l (its third reach is 0), and the uncut
    # half-edge to each end e gives max(2 l / 3, l - d(x, e)) <= l
    env = envelope(den, lo, hi, (two_l3,), (line(l0, sl - 1), line(l0 - length, sl + 1)))
    # the inner option, a min of lines, is kept as a tuple of its lines
    to_v = next(e[0] for e in dirs[u][0] if e[1] == v)
    to_u = next(e[0] for e in dirs[v][0] if e[1] == u)
    stack = [
        (u, v, (0, 1), (line(l0 - to_v * scale, sl + 1),)),
        (v, u, (length, -1), (line(l0 - to_u * scale + length, sl - 1),)),
    ]
    while stack and max(env.yn) * best.denominator > best.numerator * env.d:
        b, a, t2, inner = stack.pop()
        if cut(*t2):
            continue
        nbrs, top = dirs[b]
        off = _off_path(top, a)
        vals, deep = [e[0] * scale for e in off], off[0][1]
        c, s = l0 - t2[0], sl - t2[1]  # l - t2; a branch term is l - t2 - R
        ups = (line(2 * t2[0], 2 * t2[1]), line(c - vals[1], s))
        env = env.min_with(envelope(den, lo, hi, ups, inner + (line(c - vals[2], s),)))
        for _reach, nb, L, _ in nbrs:
            if nb == a:
                continue
            if cut(*t2):
                break  # 2 t2 bounds every config on and below the edges left
            tb = (t2[0] + L * scale, t2[1])
            stack.append((nb, b, tb, inner + (line(c - vals[nb == deep], s),)))
            env = env.min_with(edge_term(t2, tb))
    return env


def _above_somewhere(lines, lo: int, hi: int, bn: int, bd: int) -> bool:
    """Whether some offset ``z`` in ``[lo, hi]``, ``lo < hi``, has every line
    ``c + s z`` of ``lines`` above ``bn / bd``.  Each line bounds an open
    half-line of ``z``; they meet inside the closed domain iff the largest
    lower bound is below the least upper one, compared as fractions."""
    ln, ld, un, ud = lo, 1, hi, 1
    for c, s in lines:
        n = bn - c * bd  # c + s z > bn / bd  <=>  s bd z > n
        if s > 0:
            if n * ld > ln * s * bd:
                ln, ld = n, s * bd
        elif s < 0:
            if n * ud > un * s * bd:
                un, ud = -n, -s * bd
        elif n >= 0:
            return False
    return ln * ud < un * ld


def _may_beat(
    root, V: int, r: Fraction, u: str, v: str, a: int, b: int, best: Fraction
) -> bool:
    """Whether somewhere on the domain of ``_edge_sup(tree, r, u, v, best)``
    both the tent ``min(a + 2 z, b + 2 (L - z))`` and the configurations
    that ``_edge_sup`` starts from, ``max(2 l / 3, min(l - z, l - (L - z)))``,
    exceed ``best``; ``a`` and ``b`` bound psi at ``u`` and ``v``, over
    ``V = 3 lcm(D, r_d)``, where ``root = (parent, num, anc, D)`` is the
    tree's rooted data.  Max distributes over min, so that is two calls
    of :func:`_above_somewhere`, on lines over ``3 V``, where ``2 l / 3``
    is integral."""
    parent, num, _, D = root
    k = V // D
    length = abs(num[u] - num[v]) * k
    l0 = r.numerator * (V // r.denominator) - num[u] * k  # l at u; l = l0 + sl * z
    sl = -1 if parent.get(v) == u else 1
    lo, hi = (0, min(length, l0)) if sl < 0 else (max(0, -l0), length)
    if lo >= hi:
        return False
    bn, bd = 3 * V * best.numerator, best.denominator
    tent = ((3 * a, 6), (3 * (b + 2 * length), -6))
    sides = ((3 * l0, 3 * (sl - 1)), (3 * (l0 - length), 3 * (sl + 1)))
    two_l3 = (2 * l0, 2 * sl)
    return _above_somewhere(tent + (two_l3,), lo, hi, bn, bd) or _above_somewhere(
        tent + sides, lo, hi, bn, bd
    )


def rb_deficiency(tree: TreeSkeleton, r) -> Fraction:
    """Exact sup of psi over the induced real tree.

    Vertices are scanned directly; one whose third-largest reach in the
    skeleton's direction table is at least its ``l`` has psi 0 (config
    ``c2 = v``) and is not walked, and the others run the walk of
    :func:`psi_at`, which records its best configuration and builds no
    witness.  On an edge ``u``-``v`` of length ``L`` psi is at most
    ``min(a + 2L, b + 2L, (a + b)/2 + L, r - min(d(p, u), d(p, v)))`` with
    ``a = psi(u)``, ``b = psi(v)`` (past the radius sphere the tent runs
    through the sphere point, where psi is 0 as scanned).  Edges are
    visited in decreasing order of that cap until it no longer beats the
    sup found.  A visited edge is skipped where ``_may_beat`` finds that the
    tent and the configurations at ``x`` cannot both beat the sup at one
    offset.  On the others psi is one exact lower envelope over the offsets
    with ``l >= 0``, made of lines by the three identities of the module
    docstring (``_edge_sup``, which reads the same direction table); its
    max is the edge's sup.
    """
    r = as_rat(r)
    root = tree._spanning_data()
    _, num, _, D = root
    if r < 0:  # as psi_at refuses it, after the component check
        raise ValueError("point lies outside the radius bound")
    if not tree.edges():
        return psi_at(tree, Vertex(tree.basepoint), r)
    V = 3 * lcm(D, r.denominator)
    k, rv = V // D, r.numerator * (V // r.denominator)
    dirs = tree._directions()

    def vertex_psi(node) -> int:
        """psi at a vertex, over ``V``; 0 on and past the sphere."""
        l = rv - num[node] * k
        if l <= 0:
            return 0
        top = dirs[node][1]
        if len(top) >= 3 and top[2][0] * k >= l:
            return 0
        return _psi_walk(tree, r, Vertex(node))[0]

    vals = {node: vertex_psi(node) for node in tree.nodes()}
    best = Fraction(max(vals.values()), V)

    caps = []  # the cap on psi along each edge, over 2 V
    for u, v, _ in tree.edges():
        a, b, nu, nv = vals[u], vals[v], num[u], num[v]
        L = abs(nu - nv) * k
        caps.append((min(2 * min(a, b) + 4 * L, a + b + 2 * L, 2 * (rv - min(nu, nv) * k)), u, v))
    caps.sort(key=lambda item: item[0], reverse=True)
    for bound_cap, u, v in caps:
        if bound_cap * best.denominator <= best.numerator * 2 * V:
            break  # no later edge can raise the sup either
        if not _may_beat(root, V, r, u, v, vals[u], vals[v], best):
            continue
        env = _edge_sup(tree, r, u, v, best)
        if env is not None:
            best = max(best, Fraction(max(env.yn), env.d))
    return best
