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
``argmin``/``argmax``.  ``distance_profile`` builds its PL straight from
the skeleton's integer heights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .skeleton import EdgePoint, PointRef, TreeSkeleton, Vertex, _meet, normalize_point


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


def distance_profile(tree: TreeSkeleton, edge: tuple[str, str], q: PointRef) -> PL:
    """d(x, q) as x sweeps the edge from its canonical first endpoint.

    One root-arc meet of ``q`` with the edge's lower endpoint gives both
    endpoint distances: ``q`` lies in the subtree below that endpoint exactly
    when their root arcs part at its height."""
    u, v = edge
    length = tree.edge_length(u, v)
    parent = tree._root_data()[0]
    low = v if parent.get(v) == u else u
    q = normalize_point(tree, q)
    _, h, _, hq, m, den = _meet(tree, Vertex(low), q)
    # den is the skeleton's denominator times q's offset denominator, so it
    # is a multiple of both the length's and the offset's denominators
    ln = length.numerator * (den // length.denominator)
    if isinstance(q, EdgePoint) and (q.u, q.v) == (u, v):
        at = q.offset.numerator * (den // q.offset.denominator)
        return _pl(den, (0, at, ln), (at, 0, ln - at))
    d_low = h + hq - 2 * m
    d_high = d_low + ln if m == h else d_low - ln
    if low == u:
        return _pl(den, (0, ln), (d_low, d_high))
    return _pl(den, (0, ln), (d_high, d_low))
