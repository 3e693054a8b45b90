"""Exact piecewise-linear functions along one edge.

A ``PL`` has strictly increasing breakpoints ``xs`` and values ``ys``; it is
linear between them and constant beyond the ends.  A binary operation
samples both operands on the union of their breakpoints in one forward
sweep each, and ``max_with``/``min_with`` insert every strict crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .skeleton import EdgePoint, PointRef, TreeSkeleton, Vertex, distance, normalize_point


def _sample(xs, ys, grid) -> list:
    """Values of the PL (xs, ys) at the sorted points of grid, in one
    forward sweep; constant beyond the ends."""
    out = []
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
            out.append(y0 + (ys[i] - y0) * (x - x0) / (xs[i] - x0))
    return out


@dataclass(frozen=True)
class PL:
    """Piecewise-linear function on an interval, exact breakpoints/values."""

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]

    @staticmethod
    def const(lo: Fraction, hi: Fraction, c: Fraction) -> "PL":
        return PL((lo, hi), (c, c)) if lo != hi else PL((lo,), (c,))

    def _merged(self, other: "PL"):
        """The union of both breakpoint sets, with both values at each."""
        xs, zs = self.xs, other.xs
        if xs == zs:
            return xs, self.ys, other.ys
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
        return grid, _sample(xs, self.ys, grid), _sample(zs, other.ys, grid)

    def _envelope(self, other: "PL", upper: bool) -> "PL":
        """Pointwise max (upper) or min of two PLs, crossings inserted."""
        grid, ya, yb = self._merged(other)
        xs: list = []
        ys: list = []
        prev, d0 = 0, None
        for k, x in enumerate(grid):
            a, b = ya[k], yb[k]
            d = a - b
            sign = d.numerator
            if (prev > 0 > sign) or (prev < 0 < sign):
                # both operands are linear on [grid[k-1], x]: cross there
                t = d0 / (d0 - d)
                x0, a0 = grid[k - 1], ya[k - 1]
                xs.append(x0 + (x - x0) * t)
                ys.append(a0 + (a - a0) * t)
            xs.append(x)
            ys.append(a if (sign >= 0 if upper else sign <= 0) else b)
            prev, d0 = sign, d
        return PL(tuple(xs), tuple(ys))

    def add(self, other: "PL") -> "PL":
        grid, ya, yb = self._merged(other)
        return PL(tuple(grid), tuple(a + b for a, b in zip(ya, yb)))

    def sub(self, other: "PL") -> "PL":
        grid, ya, yb = self._merged(other)
        return PL(tuple(grid), tuple(a - b for a, b in zip(ya, yb)))

    def max_with(self, other: "PL") -> "PL":
        return self._envelope(other, True)

    def min_with(self, other: "PL") -> "PL":
        return self._envelope(other, False)

    def scale(self, c: Fraction) -> "PL":
        return PL(self.xs, tuple(c * y for y in self.ys))

    def __abs__(self) -> "PL":
        return self.max_with(self.scale(Fraction(-1)))

    def argmin(self) -> tuple[Fraction, Fraction]:
        """Minimum over the domain, with its leftmost argmin."""
        i = min(range(len(self.ys)), key=self.ys.__getitem__)
        return self.ys[i], self.xs[i]

    def argmax(self) -> tuple[Fraction, Fraction]:
        """Maximum over the domain, with its leftmost argmax."""
        i = max(range(len(self.ys)), key=self.ys.__getitem__)
        return self.ys[i], self.xs[i]


def distance_profile(tree: TreeSkeleton, edge: tuple[str, str], q: PointRef) -> PL:
    """d(x, q) as x sweeps the edge from its canonical first endpoint."""
    u, v = edge
    length = tree.edge_length(u, v)
    q = normalize_point(tree, q)
    if isinstance(q, EdgePoint) and (q.u, q.v) == (u, v):
        return PL((Fraction(0), q.offset, length), (q.offset, Fraction(0), length - q.offset))
    du = distance(tree, Vertex(u), q)
    dv = distance(tree, Vertex(v), q)
    if dv == du + length:
        return PL((Fraction(0), length), (du, du + length))
    if du == dv + length:
        return PL((Fraction(0), length), (dv + length, dv))
    raise AssertionError("point is on neither side of the edge")
