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
the best value found.

``psi_grid_oracle`` is the independent brute-force check: the same
infimum restricted to witness triples on a finite grid.  It never
undercuts the exact value and exceeds it by at most ``2 * mesh``.

``rb_deficiency`` computes sup_x psi(x) exactly.  Vertices are scanned
directly.  On each open edge, the objective of a concrete witness triple
is a piecewise-linear function of the offset that bounds psi from above
everywhere; starting from the endpoint triples, edges are refined at the
argmax of the current bound until the bound matches the best exact sample.
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
    materialize,
    normalize_point,
    point_on_segment,
)
from .pl import PL, distance_profile


def _g(t: Fraction, reach: Fraction, l: Fraction) -> Fraction:
    """Best branch term for a witness hung at distance t into given reach."""
    return max(t - l, l - t - reach, Fraction(0))


def _top_reaches(tree: TreeSkeleton, node: str, exclude, k: int = 3):
    table = tree.directional_reach()
    pairs = sorted(
        ((table[(node, nb)], nb) for nb in tree.neighbors(node) if nb not in exclude),
        reverse=True,
    )
    vals = [p[0] for p in pairs[:k]] + [Fraction(0)] * k
    dirs: list[Optional[str]] = [p[1] for p in pairs[:k]] + [None] * k
    return vals[:k], dirs[:k]


def _descend(
    tree: TreeSkeleton, node: str, direction: Optional[str], depth: Fraction
) -> PointRef:
    """The point at the given depth along a maximal-reach path from node."""
    if depth == 0 or direction is None:
        return Vertex(node)
    table = tree.directional_reach()
    cur, nxt, rem = node, direction, depth
    while True:
        length = tree.edge_length(cur, nxt)
        if rem <= length:
            return normalize_point(tree, EdgePoint(cur, nxt, rem))
        rem -= length
        best = None
        for z in tree.neighbors(nxt):
            if z != cur and (best is None or table[(nxt, z)] > best[0]):
                best = (table[(nxt, z)], z)
        if best is None:
            raise AssertionError("descent ran past a leaf")
        cur, nxt = nxt, best[1]


def _psi_at_vertex(tree: TreeSkeleton, r: Fraction, x_node: str):
    """Exact psi at a vertex; returns (value, witness triple, host edge).

    The host edge is ``(a, b)`` (``a`` nearer ``x``) when the optimum is
    attained with the outer split strictly inside that edge, else None.
    """
    l = r - tree.dist_to_basepoint(x_node)
    if l < 0:
        raise ValueError("point lies outside the radius bound")
    X = Vertex(x_node)
    if l == 0:
        return Fraction(0), (X, X, X), None

    def inner_witness(desc):
        if desc[0] == "free":
            _, t2, c2ref = desc
            return point_on_segment(tree, X, c2ref, min(l, t2))
        _, node, t1, direction, reach = desc
        return _descend(tree, node, direction, min(max(l - t1, Fraction(0)), reach))

    # config c2 = x: witnesses into the three deepest branches at x itself
    vals0, dirs0 = _top_reaches(tree, x_node, (), 3)
    best_val = _g(Fraction(0), vals0[2], l)

    def root_witnesses(vals0=vals0, dirs0=dirs0):
        return tuple(
            _descend(tree, x_node, dirs0[i], min(l, vals0[i])) for i in range(3)
        )

    best_maker = root_witnesses
    best_host: Optional[tuple[str, str]] = None

    def consider(val, maker, host=None):
        nonlocal best_val, best_maker, best_host
        if val < best_val:
            best_val = val
            best_maker = maker
            best_host = host

    def edge_interior(a: str, b: str, ta: Fraction, c_in: Fraction, c_in_desc):
        """Configs with the outer split strictly inside edge a-b (a nearer x)."""
        if 2 * ta >= best_val:
            return  # the cross term alone rules out an improvement
        L = tree.edge_length(a, b)
        (H,), (h_dir,) = _top_reaches(tree, b, (a,), 1)
        c3 = l - ta - L - H  # constant deep-branch term through the far end
        # objective at t2 = ta + s: max(2 t2, |t2 - l|, max(t2 - l, c3, 0),
        # min(c_in, max(l - t2, 0))); as t2 >= 0 and l > 0 every term but c3
        # is at most max(2 t2, l - t2), so it is the upper envelope of three
        # lines, and its leftmost argmin is the first optimal offset
        zero = Fraction(0)
        envelope = PL((zero, L), (2 * ta, 2 * (ta + L))).max_with(
            PL((zero, L), (l - ta, l - ta - L))
        ).max_with(PL.const(zero, L, c3))
        val, s = envelope.argmin()
        if val >= best_val:
            return
        t2 = ta + s

        def maker():
            c2ref = normalize_point(tree, EdgePoint(a, b, s))
            u1 = min(max(l - t2, Fraction(0)), (L - s) + H)
            if u1 <= L - s:
                y1 = normalize_point(tree, EdgePoint(a, b, s + u1))
            else:
                y1 = _descend(tree, b, h_dir, u1 - (L - s))
            if c_in <= max(l - t2, Fraction(0)):
                y3 = inner_witness(c_in_desc)
            else:
                y3 = inner_witness(("free", t2, c2ref))
            return (y1, c2ref, y3)

        consider(val, maker, host=(a, b))

    # depth-first walk over vertex positions of the outer split, carrying the
    # best inner (third-witness) option found along the path from x
    stack = []
    for nb in tree.neighbors(x_node):
        rvals, rdirs = _top_reaches(tree, x_node, (nb,), 1)
        inner0_val = _g(Fraction(0), rvals[0], l)
        inner0 = ("branch", x_node, Fraction(0), rdirs[0], rvals[0])
        edge_interior(x_node, nb, Fraction(0), inner0_val, inner0)
        stack.append((nb, x_node, tree.edge_length(x_node, nb), inner0_val, inner0))

    while stack:
        c2, parent, t2, in_val, in_desc = stack.pop()
        if 2 * t2 >= best_val:
            continue  # t2 only grows below c2, and every config costs 2 t2
        vals, dirs = _top_reaches(tree, c2, (parent,), 3)
        free_val = max(l - t2, Fraction(0))
        third_val = _g(t2, vals[2], l)
        inner_best = min(in_val, free_val, third_val)
        F = max(2 * t2, _g(t2, vals[1], l), inner_best)

        def vertex_maker(c2=c2, t2=t2, vals=vals, dirs=dirs, in_val=in_val,
                         in_desc=in_desc, free_val=free_val, third_val=third_val):
            depth = max(l - t2, Fraction(0))
            y1 = _descend(tree, c2, dirs[0], min(depth, vals[0]))
            y2 = _descend(tree, c2, dirs[1], min(depth, vals[1]))
            m = min(in_val, free_val, third_val)
            if third_val == m:
                y3 = inner_witness(("branch", c2, t2, dirs[2], vals[2]))
            elif in_val == m:
                y3 = inner_witness(in_desc)
            else:
                y3 = inner_witness(("free", t2, Vertex(c2)))
            return (y1, y2, y3)

        consider(F, vertex_maker)

        for nb in tree.neighbors(c2):
            if nb == parent:
                continue
            svals, sdirs = _top_reaches(tree, c2, (parent, nb), 1)
            branch_val = _g(t2, svals[0], l)
            if branch_val < in_val:
                new_val: Fraction = branch_val
                new_desc = ("branch", c2, t2, sdirs[0], svals[0])
            else:
                new_val, new_desc = in_val, in_desc
            edge_interior(c2, nb, t2, new_val, new_desc)
            stack.append((nb, c2, t2 + tree.edge_length(c2, nb), new_val, new_desc))

    return best_val, best_maker(), best_host


def psi_at(tree: TreeSkeleton, x: PointRef, r) -> Fraction:
    """Exact branching deficiency at a point."""
    return psi_at_with_witness(tree, x, r)[0]


def psi_at_with_witness(tree: TreeSkeleton, x: PointRef, r):
    """Exact psi plus an optimal witness triple (points of the given tree)."""
    val, wits, _host = _psi_full(tree, x, r)
    return val, wits


def _psi_full(tree: TreeSkeleton, x: PointRef, r):
    """(value, witnesses, host) with everything in the given tree's
    coordinates; the host edge is reported as a pair of points so that it
    survives the materialization of an interior ``x``."""
    r = as_rat(r)
    x = normalize_point(tree, x)
    if isinstance(x, Vertex):
        val, wits, host = _psi_at_vertex(tree, r, x.node)
        host_pts = (Vertex(host[0]), Vertex(host[1])) if host else None
        return val, wits, host_pts
    mat = materialize(tree, [x], prefix="psi")
    val, wits, host = _psi_at_vertex(mat.tree, r, mat.node_for(x))

    def pull(pt):
        return normalize_point(tree, mat.pull_back(normalize_point(mat.tree, pt)))

    host_pts = host and tuple(pull(Vertex(n)) for n in host)
    return val, tuple(pull(w) for w in wits), host_pts


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


def _certificate_profile(tree: TreeSkeleton, edge, r: Fraction, witnesses) -> PL:
    """Objective of a fixed witness triple as a PL function of the edge
    offset; a valid upper bound for psi along the whole edge."""
    length = tree.edge_length(*edge)
    lfun = _reach_profile(tree, edge, r)
    profs = [distance_profile(tree, edge, w) for w in witnesses]
    terms = [abs(prof.sub(lfun)) for prof in profs]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        dij = distance(tree, witnesses[i], witnesses[j])
        terms.append(profs[i].add(profs[j]).sub(PL.const(Fraction(0), length, dij)))
    return reduce(PL.max_with, terms)


def _family_certificate(tree: TreeSkeleton, edge, r: Fraction, a: str, b: str, lo: PL) -> PL:
    """Exact value, along the edge, of the config family whose outer split
    slides toward ``b`` over a host ray that ends with the tree edge
    ``a``-``b``, at distances ``t2`` from ``lo`` up to ``D = d(x, b)``.

    For a sliding split at distance ``t2`` the best objective is
    ``max(2 t2, |t2 - l|, l - D - H)`` (deep witness through ``b`` into its
    largest reach ``H`` away from ``a``, second witness at the split, third
    on the path), and the minimum over ``t2`` is attained at one of finitely
    many breakpoint candidates, each a PL function of the edge offset.  The
    result upper-bounds psi everywhere on the edge and captures the
    fractional-slope envelope pieces that frozen witness triples cannot.
    """
    length = tree.edge_length(*edge)
    zero = PL.const(Fraction(0), length, Fraction(0))
    lfun = _reach_profile(tree, edge, r)
    D = distance_profile(tree, edge, Vertex(b))
    H = (tree.reaches_at(b, exclude=(a,)) or [Fraction(0)])[0]
    c3 = lfun.sub(D).sub(PL.const(Fraction(0), length, H))

    cands = [
        lo,
        D,
        lfun.scale(Fraction(1, 3)),
        lfun,
        c3.scale(Fraction(1, 2)),
        lfun.sub(c3),
        lfun.add(c3),
    ]
    objectives = []
    for cand in cands:
        t2 = cand.max_with(lo).min_with(D).max_with(zero)
        objectives.append(t2.scale(Fraction(2)).max_with(abs(t2.sub(lfun))).max_with(c3))
    return reduce(PL.min_with, objectives)


def rb_deficiency(tree: TreeSkeleton, r, max_refinements_per_edge: int = 200) -> Fraction:
    """Exact sup of psi over the induced real tree.

    Vertices are scanned directly.  On each edge, an upper envelope made of
    witness-triple certificates and sliding-split family certificates is
    refined at its argmax until it matches the best exact sample.
    """
    r = as_rat(r)
    if not tree.edges():
        return psi_at(tree, Vertex(tree.basepoint), r)

    cache: dict[str, tuple[Fraction, tuple]] = {}

    def eval_vertex(node: str):
        got = cache.get(node)
        if got is not None:
            return got
        l = r - tree.dist_to_basepoint(node)
        vals, dirs = _top_reaches(tree, node, (), 3)
        if l <= 0:
            key = Vertex(node)
            got = (Fraction(0), (key, key, key))
        elif vals[2] >= l:
            wits = tuple(_descend(tree, node, dirs[i], l) for i in range(3))
            got = (Fraction(0), wits)
        else:
            val, wits, _host = _psi_at_vertex(tree, r, node)
            got = (val, wits)
        cache[node] = got
        return got

    best = Fraction(0)
    for node in tree.nodes():
        val, _w = eval_vertex(node)
        if val > best:
            best = val

    for u, v, length in tree.edges():
        zero = PL.const(Fraction(0), length, Fraction(0))
        val_u, wit_u = eval_vertex(u)
        val_v, wit_v = eval_vertex(v)
        bound_pl = _certificate_profile(tree, (u, v), r, wit_u).min_with(
            _certificate_profile(tree, (u, v), r, wit_v)
        )
        # sliding families along the edge itself, in both directions
        for a, b in ((u, v), (v, u)):
            bound_pl = bound_pl.min_with(_family_certificate(tree, (u, v), r, a, b, zero))

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
            pt = normalize_point(tree, EdgePoint(u, v, arg))
            val, wits, host = _psi_full(tree, pt, r)
            if val > best:
                best = val
            bound_pl = bound_pl.min_with(
                _certificate_profile(tree, (u, v), r, wits)
            )
            if host is not None and all(isinstance(h, Vertex) for h in host):
                a_node, b_node = host[0].node, host[1].node
                if (a_node, b_node) not in seen_hosts and tree.has_edge(a_node, b_node):
                    seen_hosts.add((a_node, b_node))
                    lo_pl = distance_profile(tree, (u, v), Vertex(a_node))
                    bound_pl = bound_pl.min_with(
                        _family_certificate(tree, (u, v), r, a_node, b_node, lo_pl)
                    )
    return best
