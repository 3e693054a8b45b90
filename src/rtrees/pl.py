"""Exact piecewise-linear functions along one edge.

A ``PL`` has strictly increasing breakpoints ``xs`` and values ``ys``; it is
linear between them and constant beyond the ends.  A binary operation
samples both operands on the union of their breakpoints in one forward
sweep each, and ``max_with``/``min_with`` insert every strict crossing.

Internally a ``PL`` is one positive integer denominator ``d`` and two tuples
of ints, ``xn`` and ``yn``: breakpoint ``i`` is ``xn[i] / d`` with value
``yn[i] / d``.  Every result is reduced by the gcd of ``d`` and all its
numerators, so equal functions have equal fields and compare equal.  Two
operands over different denominators are first brought to their lcm.  An
interpolated sample or a crossing whose quotient is not integral needs a
finer denominator: the operation records it as a numerator over ``d * f``
and rescales the whole result once, by the lcm of every such ``f``.
``Fraction``s are built only at the boundary: the ``PL(xs, ys)``
constructor, ``const``, ``scale``, the ``xs``/``ys`` properties and
``argmin``/``argmax``.

Lines over one interval need no PL each: ``envelope`` takes the max of some
lines and the min of others, each given by its two end values over a shared
``d``, in one pass, with a breakpoint at each change of line, and reduces
the result once.

Distances along an edge come from ``distance_table``: one pass over the
skeleton's integer heights gives ``d(q, n)`` for every node ``n``, over
``q``'s rooted denominator, and ``table_profile`` builds an edge's profile
from two of its entries, with no root-arc meet per edge.
``distance_profile`` is that read for one edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .skeleton import EdgePoint, PointRef, SkeletonError, TreeSkeleton, _rooted, normalize_point


def _sample(xs, ys, grid):
    """Values of the PL (xs, ys) at the sorted points of grid, in one forward
    sweep; constant beyond the ends.  Returns ``(vals, extra, f)``: a value
    that is not a numerator over the operands' denominator is ``(numerator,
    g)`` over ``g`` times that denominator in ``extra``, keyed by its index,
    with a placeholder in ``vals``; ``f`` is the lcm of those ``g``."""
    out = []
    extra = {}
    f = 1
    n = len(xs)
    i = 0
    for x in grid:
        while i < n and xs[i] < x:
            i += 1
        if i == 0:
            out.append(ys[0])
        elif i == n:
            out.append(ys[-1])
        elif xs[i] == x:
            out.append(ys[i])
        else:
            x0, y0 = xs[i - 1], ys[i - 1]
            num = (ys[i] - y0) * (x - x0)
            den = xs[i] - x0
            q, rem = divmod(num, den)
            if rem:
                g = gcd(num, den)
                den //= g
                extra[len(out)] = (y0 * den + num // g, den)
                f = lcm(f, den)
            out.append(y0 + q)
    return out, extra, f


def _rescaled(vals, extra, f: int) -> list:
    """``vals`` over a denominator ``f`` times finer, with the entries of
    ``extra`` (``(numerator, g)`` over ``g`` times the old one) filled in."""
    out = [v * f for v in vals]
    for k, (num, g) in extra.items():
        out[k] = num * (f // g)
    return out


def _pl(d: int, xn, yn) -> "PL":
    """The PL with numerators ``xn``/``yn`` over ``d``, reduced."""
    g = gcd(d, *xn, *yn)
    if g != 1:
        d //= g
        xn = tuple([x // g for x in xn])
        yn = tuple([y // g for y in yn])
    pl = object.__new__(PL)
    object.__setattr__(pl, "d", d)
    object.__setattr__(pl, "xn", tuple(xn))
    object.__setattr__(pl, "yn", tuple(yn))
    return pl


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PL:
    """Piecewise-linear function on an interval, exact breakpoints/values."""

    d: int
    xn: tuple[int, ...]
    yn: tuple[int, ...]

    def __init__(self, xs, ys) -> None:
        d = lcm(*(v.denominator for v in xs), *(v.denominator for v in ys))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "xn", tuple(v.numerator * (d // v.denominator) for v in xs))
        object.__setattr__(self, "yn", tuple(v.numerator * (d // v.denominator) for v in ys))

    def __repr__(self) -> str:
        return f"PL(xs={self.xs!r}, ys={self.ys!r})"

    @property
    def xs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.d) for x in self.xn)

    @property
    def ys(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(y, self.d) for y in self.yn)

    @staticmethod
    def const(lo: Fraction, hi: Fraction, c: Fraction) -> "PL":
        return PL((lo, hi), (c, c)) if lo != hi else PL((lo,), (c,))

    def _merged(self, other: "PL"):
        """``(d, grid, ya, yb)``: the union of both breakpoint sets, with both
        values at each, all as numerators over one denominator ``d``."""
        d, xs, ys, zs, ws = self.d, self.xn, self.yn, other.xn, other.yn
        if other.d != d:
            d = lcm(d, other.d)
            if d != self.d:
                k = d // self.d
                xs = tuple([x * k for x in xs])
                ys = [y * k for y in ys]
            if d != other.d:
                k = d // other.d
                zs = tuple([z * k for z in zs])
                ws = [w * k for w in ws]
        if xs == zs:
            return d, xs, ys, ws
        grid = []
        i = j = 0
        while i < len(xs) and j < len(zs):
            x, z = xs[i], zs[j]
            if x < z:
                grid.append(x)
                i += 1
            elif z < x:
                grid.append(z)
                j += 1
            else:
                grid.append(x)
                i += 1
                j += 1
        grid.extend(xs[i:])
        grid.extend(zs[j:])
        ya, ea, fa = _sample(xs, ys, grid)
        yb, eb, fb = _sample(zs, ws, grid)
        f = lcm(fa, fb)
        if f != 1:
            grid = [x * f for x in grid]
            ya = _rescaled(ya, ea, f)
            yb = _rescaled(yb, eb, f)
            d *= f
        return d, grid, ya, yb

    def _envelope(self, other: "PL", upper: bool) -> "PL":
        """Pointwise max (upper) or min of two PLs, crossings inserted."""
        d, grid, ya, yb = self._merged(other)
        xs: list = []
        ys: list = []
        xe, ye = {}, {}
        f = 1
        prev = 0
        for k, x in enumerate(grid):
            a, b = ya[k], yb[k]
            diff = a - b
            if (prev > 0 > diff) or (prev < 0 < diff):
                # both operands are linear on [grid[k-1], x]: they cross at
                # the fraction prev / (prev - diff) of the way, at
                # (xc / den, yc / den) over d
                den = prev - diff
                x0, a0 = grid[k - 1], ya[k - 1]
                xc = x0 * den + (x - x0) * prev
                yc = a0 * den + (a - a0) * prev
                if den < 0:
                    den, xc, yc = -den, -xc, -yc
                g = gcd(den, xc, yc)
                den //= g
                if den != 1:
                    xe[len(xs)] = (xc // g, den)
                    ye[len(ys)] = (yc // g, den)
                    f = lcm(f, den)
                xs.append(xc // g)
                ys.append(yc // g)
            xs.append(x)
            ys.append(a if (diff >= 0 if upper else diff <= 0) else b)
            prev = diff
        if f != 1:
            xs = _rescaled(xs, xe, f)
            ys = _rescaled(ys, ye, f)
            d *= f
        return _pl(d, xs, ys)

    def add(self, other: "PL") -> "PL":
        d, grid, ya, yb = self._merged(other)
        return _pl(d, grid, [a + b for a, b in zip(ya, yb)])

    def sub(self, other: "PL") -> "PL":
        d, grid, ya, yb = self._merged(other)
        return _pl(d, grid, [a - b for a, b in zip(ya, yb)])

    def max_with(self, other: "PL") -> "PL":
        return self._envelope(other, True)

    def min_with(self, other: "PL") -> "PL":
        return self._envelope(other, False)

    def scale(self, c: Fraction) -> "PL":
        p, q = c.numerator, c.denominator
        return _pl(self.d * q, [x * q for x in self.xn], [p * y for y in self.yn])

    def __abs__(self) -> "PL":
        return self.max_with(self.scale(Fraction(-1)))

    def argmin(self) -> tuple[Fraction, Fraction]:
        """Minimum over the domain, with its leftmost argmin."""
        i = min(range(len(self.yn)), key=self.yn.__getitem__)
        return Fraction(self.yn[i], self.d), Fraction(self.xn[i], self.d)

    def argmax(self) -> tuple[Fraction, Fraction]:
        """Maximum over the domain, with its leftmost argmax."""
        i = max(range(len(self.yn)), key=self.yn.__getitem__)
        return Fraction(self.yn[i], self.d), Fraction(self.xn[i], self.d)


def envelope(d: int, lo: int, hi: int, ups, downs=()) -> PL:
    """``max(ups..., min(downs...))`` over ``[lo / d, hi / d]`` in one pass,
    a side left out if empty: the upper envelope of ``ups``, or with no
    ``ups`` the lower one of ``downs``.  A line is ``(a, b)``, its values at
    ``lo`` and ``hi`` as numerators over ``d``.  From ``lo`` the walk
    follows the line on top just after ``t = p / q`` of the way to ``hi`` up
    to the next crossing where another may take over: one steeper than an
    up line, or an up line steeper than a down line, or a down line less
    steep than a down line.  So the result has a breakpoint at each change
    of line, and a crossing off the grid of ``d`` is kept over a finer
    denominator until the one rescale and reduction at the end."""

    def top(p, q):
        # by (value, slope) just after t: the max of the ups or the min of
        # the downs, the ups winning a tie
        up = max(((a * q + (b - a) * p, b - a, a, b) for a, b in ups), default=None)
        if downs:
            dn = min((a * q + (b - a) * p, b - a, a, b) for a, b in downs)
            if up is None or dn[:2] > up[:2]:
                return dn[2], dn[3], True
        return up[2], up[3], False

    a, b, down = top(0, 1)
    if lo == hi:
        return _pl(d, (lo,), (a,))
    xs, ys = [lo], [a]
    xe, ye = {}, {}
    p, q, f = 0, 1, 1
    while True:
        ep = eq = 1  # the next crossing, at t = ep / eq
        for lines, sign in ((ups, 1), (downs, -1 if down else 1)):
            for a2, b2 in lines:
                k, n = (b2 - a2 - b + a) * sign, (a - a2) * sign
                if k > 0 and n * eq < ep * k and n * q > p * k:
                    ep, eq = n, k
        if ep >= eq:
            break
        p, q = ep, eq
        a2, b2, down = top(p, q)
        if (a2, b2) != (a, b):
            xc, yc = lo * q + (hi - lo) * p, a * q + (b - a) * p
            g = gcd(q, xc, yc)
            if q != g:
                xe[len(xs)] = (xc // g, q // g)
                ye[len(ys)] = (yc // g, q // g)
                f = lcm(f, q // g)
            xs.append(xc // g)
            ys.append(yc // g)
            a, b = a2, b2
    xs.append(hi)
    ys.append(b)
    if f != 1:
        xs, ys, d = _rescaled(xs, xe, f), _rescaled(ys, ye, f), d * f
    return _pl(d, xs, ys)


def distance_table(tree: TreeSkeleton, q: PointRef):
    """``(dist, den, host)``: ``dist[n] / den`` is ``d(q, n)`` for every node
    ``n`` of the basepoint's component, over ``q``'s rooted denominator, and
    ``host`` is ``q``'s edge, or ``None`` if ``q`` is a vertex; ``q`` is then
    ``dist[host[0]] / den`` from ``host[0]``.

    One pass down the basepoint's parent map, in which a parent comes before
    its children, gives the height ``m[n]`` at which the root arcs of ``q``
    and ``n`` part: ``min(h_n, h_q)`` on ``q``'s root arc, and off it
    ``m[parent[n]]``, since ``n``'s root arc leaves ``q``'s where its
    parent's does.  Then ``d(q, n) = h_q + h_n - 2 m[n]``."""
    parent, num, _, D = tree._root_data()
    q = normalize_point(tree, q)
    node, hq, den = _rooted(parent, num, D, q)
    k = den // D
    m = {}
    x = node
    while x is not None:
        m[x] = num[x] * k
        x = parent[x]
    m[node] = min(m[node], hq)
    for n, up in parent.items():
        if n not in m:
            m[n] = m[up]
    dist = {n: hq + h * k - 2 * m[n] for n, h in num.items()}
    return dist, den, (q.u, q.v) if isinstance(q, EdgePoint) else None


def table_profile(table, u: str, v: str) -> PL:
    """d(x, q) as x sweeps the edge from ``u`` to ``v``, read off ``q``'s
    :func:`distance_table`: a V with its tip at ``q`` on ``q``'s own edge,
    one line on every other, as the arc from ``q`` enters it at one end."""
    dist, den, host = table
    try:
        du, dv = dist[u], dist[v]
    except KeyError:
        raise SkeletonError("distance query across disconnected components") from None
    if host == (u, v) or host == (v, u):
        return _pl(den, (0, du, du + dv), (du, 0, dv))
    return _pl(den, (0, abs(du - dv)), (du, dv))


def distance_profile(tree: TreeSkeleton, edge: tuple[str, str], q: PointRef) -> PL:
    """d(x, q) as x sweeps the edge from its first endpoint."""
    u, v = edge
    tree.edge_length(u, v)  # UnknownPointError if u-v is not an edge
    return table_profile(distance_table(tree, q), u, v)
