"""The PL kernel against a test-local reference: the point-by-point
evaluation and the sort-then-evaluate merge the kernel replaced."""

import random
from fractions import Fraction
from functools import reduce
from math import lcm

from rtrees.pl import PL, _pl, envelope


def ref_value_at(xs, ys, x):
    if x <= xs[0]:
        return ys[0]
    for i in range(1, len(xs)):
        if x <= xs[i]:
            x0, x1 = xs[i - 1], xs[i]
            y0, y1 = ys[i - 1], ys[i]
            if x1 == x0:
                return y1
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return ys[-1]


def ref_zip(a, b, with_crossings):
    grid = sorted(set(a.xs) | set(b.xs))
    if with_crossings:
        extra = []
        for i in range(len(grid) - 1):
            x0, x1 = grid[i], grid[i + 1]
            d0 = ref_value_at(a.xs, a.ys, x0) - ref_value_at(b.xs, b.ys, x0)
            d1 = ref_value_at(a.xs, a.ys, x1) - ref_value_at(b.xs, b.ys, x1)
            if (d0 > 0 > d1) or (d0 < 0 < d1):
                extra.append(x0 + (x1 - x0) * d0 / (d0 - d1))
        grid = sorted(set(grid) | set(extra))
    return grid


def ref_apply(a, b, op, with_crossings):
    grid = ref_zip(a, b, with_crossings)
    ys = tuple(op(ref_value_at(a.xs, a.ys, x), ref_value_at(b.xs, b.ys, x)) for x in grid)
    return tuple(grid), ys


OPS = {
    "add": (lambda u, v: u + v, False),
    "sub": (lambda u, v: u - v, False),
    "max_with": (max, True),
    "min_with": (min, True),
}


def random_pl(rng, length, pieces):
    """A PL on [0, length] with interior breakpoints and values over
    denominators 3, 4 and 7."""
    inner = set()
    while len(inner) < pieces - 1:
        x = Fraction(rng.randrange(1, 84), 84) * length
        inner.add(x)
    xs = (Fraction(0),) + tuple(sorted(inner)) + (length,)
    return PL(xs, random_values(rng, len(xs)))


def random_values(rng, n):
    return tuple(Fraction(rng.randrange(-12, 13), rng.choice((3, 4, 7))) for _ in range(n))


def probes(*pls):
    """Every breakpoint of the given PLs, the midpoints between them, and
    points beyond both ends."""
    pts = sorted({x for pl in pls for x in pl.xs})
    mids = [(x0 + x1) / 2 for x0, x1 in zip(pts, pts[1:])]
    return pts + mids + [pts[0] - 1, pts[-1] + Fraction(5, 7)]


def check_against_reference(a, b):
    for name, (op, crossings) in OPS.items():
        got = getattr(a, name)(b)
        want_xs, want_ys = ref_apply(a, b, op, crossings)
        assert all(x0 < x1 for x0, x1 in zip(got.xs, got.xs[1:])), name
        assert got.xs == want_xs, name
        for x in probes(got, PL(want_xs, want_ys)):
            assert ref_value_at(got.xs, got.ys, x) == ref_value_at(want_xs, want_ys, x), (name, x)


def pairs():
    rng = random.Random("rtrees-tests-pl")
    length = Fraction(3, 2)
    for _ in range(150):
        a = random_pl(rng, length, rng.randint(1, 6))
        b = random_pl(rng, length, rng.randint(1, 6))
        yield a, b
        yield a, PL(a.xs, random_values(rng, len(a.xs)))  # the same breakpoints
    # a single-point PL, and operands on different domains: the shorter one
    # is constant beyond its end
    point = PL((Fraction(1, 3),), (Fraction(2, 7),))
    short = PL((Fraction(0), Fraction(3, 4)), (Fraction(1), Fraction(-1, 3)))
    long = PL((Fraction(0), Fraction(1), Fraction(2)), (Fraction(-1), Fraction(1, 4), Fraction(0)))
    yield point, long
    yield long, point
    yield short, long
    yield long, short


def test_binary_ops_match_reference():
    for a, b in pairs():
        check_against_reference(a, b)


def test_scale_matches_reference():
    rng = random.Random("rtrees-tests-pl-scale")
    for _ in range(40):
        a = random_pl(rng, Fraction(7, 4), rng.randint(1, 5))
        c = Fraction(rng.randrange(-9, 10), rng.choice((3, 4, 7)))
        got = a.scale(c)
        assert got.xs == a.xs
        for x in probes(a):
            assert ref_value_at(got.xs, got.ys, x) == c * ref_value_at(a.xs, a.ys, x)


def test_argmin_argmax_are_leftmost():
    flat = PL(
        (Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
        (Fraction(1), Fraction(0), Fraction(0), Fraction(1)),
    )
    assert flat.argmin() == (Fraction(0), Fraction(1))
    assert flat.argmax() == (Fraction(1), Fraction(0))
    rng = random.Random("rtrees-tests-pl-arg")
    for _ in range(40):
        a = random_pl(rng, Fraction(2), rng.randint(1, 6))
        lo, at_lo = a.argmin()
        hi, at_hi = a.argmax()
        assert lo == min(a.ys) and a.xs.index(at_lo) == a.ys.index(lo)
        assert hi == max(a.ys) and a.xs.index(at_hi) == a.ys.index(hi)


# -- the integer kernel against the Fraction kernel it replaced -------------------


def _frac_sample(xs, ys, grid):
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


class FracPL:
    """The PL kernel with Fraction breakpoints and values, as it was before
    the integer representation: the reference the kernel must equal."""

    def __init__(self, xs, ys):
        self.xs, self.ys = tuple(xs), tuple(ys)

    def _merged(self, other):
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
        return grid, _frac_sample(xs, self.ys, grid), _frac_sample(zs, other.ys, grid)

    def _envelope(self, other, upper):
        grid, ya, yb = self._merged(other)
        xs, ys = [], []
        prev, d0 = 0, None
        for k, x in enumerate(grid):
            a, b = ya[k], yb[k]
            d = a - b
            sign = d.numerator
            if (prev > 0 > sign) or (prev < 0 < sign):
                t = d0 / (d0 - d)
                x0, a0 = grid[k - 1], ya[k - 1]
                xs.append(x0 + (x - x0) * t)
                ys.append(a0 + (a - a0) * t)
            xs.append(x)
            ys.append(a if (sign >= 0 if upper else sign <= 0) else b)
            prev, d0 = sign, d
        return FracPL(xs, ys)

    def add(self, other):
        grid, ya, yb = self._merged(other)
        return FracPL(grid, [a + b for a, b in zip(ya, yb)])

    def sub(self, other):
        grid, ya, yb = self._merged(other)
        return FracPL(grid, [a - b for a, b in zip(ya, yb)])

    def max_with(self, other):
        return self._envelope(other, True)

    def min_with(self, other):
        return self._envelope(other, False)

    def scale(self, c):
        return FracPL(self.xs, [c * y for y in self.ys])

    def __abs__(self):
        return self.max_with(self.scale(Fraction(-1)))

    def argmin(self):
        i = min(range(len(self.ys)), key=self.ys.__getitem__)
        return self.ys[i], self.xs[i]

    def argmax(self):
        i = max(range(len(self.ys)), key=self.ys.__getitem__)
        return self.ys[i], self.xs[i]


def same(got, want):
    """Identical breakpoints, values and extrema, and only ints inside."""
    assert got.xs == want.xs and got.ys == want.ys
    assert got.argmin() == want.argmin() and got.argmax() == want.argmax()
    assert type(got.d) is int and got.d > 0
    assert all(type(v) is int for v in got.xn + got.yn)
    assert got == PL(want.xs, want.ys)


def coprime_pl(rng, length, pieces, den):
    """A PL on [0, length] with breakpoints and values over ``den``."""
    inner = set()
    while len(inner) < pieces - 1:
        inner.add(Fraction(rng.randrange(1, 7 * den), 7 * den) * length)
    xs = (Fraction(0),) + tuple(sorted(inner)) + (length,)
    return [xs, [Fraction(rng.randrange(-5 * den, 5 * den + 1), den) for _ in xs]]


def kernel_pairs():
    """Operand pairs on [0, 3/2]: denominators drawn from pairwise coprime
    sets, so the two operands mostly differ and their crossings need new
    denominators."""
    rng = random.Random("rtrees-tests-pl-kernel")
    length = Fraction(3, 2)
    for _ in range(120):
        da, db = rng.choice((5, 7, 9)), rng.choice((11, 13, 16))
        a = coprime_pl(rng, length, rng.randint(1, 5), da)
        b = coprime_pl(rng, length, rng.randint(1, 5), db)
        yield a, b
        yield a, [a[0], [Fraction(rng.randrange(-50, 51), db) for _ in a[0]]]  # same breakpoints


def test_integer_kernel_equals_fraction_kernel_on_every_op():
    finer = 0
    for (axs, ays), (bxs, bys) in kernel_pairs():
        a, b = PL(axs, ays), PL(bxs, bys)
        fa, fb = FracPL(axs, ays), FracPL(bxs, bys)
        same(a, fa)
        for name in ("add", "sub", "max_with", "min_with"):
            got = getattr(a, name)(b)
            same(got, getattr(fa, name)(fb))
            finer += lcm(a.d, b.d) % got.d != 0
        for c in (Fraction(1, 3), Fraction(-1), Fraction(2), Fraction(-5, 6), Fraction(0)):
            same(a.scale(c), fa.scale(c))
        same(abs(a), abs(fa))
    assert finer > 50  # crossings and samples that brought in a new denominator


def test_integer_kernel_equals_fraction_kernel_on_certificate_chains():
    # the chain _family_certificate builds, on random operands in place of
    # the reach profile l, the split distance profile D and the lower clamp
    rng = random.Random("rtrees-tests-pl-chains")
    length = Fraction(5, 3)
    for _ in range(80):
        args = [coprime_pl(rng, length, rng.randint(1, 4), rng.choice((3, 5, 7, 11))) for _ in range(3)]
        h = Fraction(rng.randrange(0, 20), rng.choice((4, 9)))
        for kernel in (PL, FracPL):
            lfun, dist, lo = (kernel(xs, ys) for xs, ys in args)
            const = kernel((Fraction(0), length), (h, h))
            zero = kernel((Fraction(0), length), (Fraction(0), Fraction(0)))
            c3 = lfun.sub(dist).sub(const)
            t2 = lfun.scale(Fraction(1, 3)).max_with(lo).min_with(dist).max_with(zero)
            steps = [c3, t2, t2.scale(Fraction(2)), abs(t2.sub(lfun))]
            steps.append(steps[2].max_with(steps[3]).max_with(c3))
            steps.append(steps[4].min_with(lfun.add(c3)))
            if kernel is PL:
                got = steps
        for g, w in zip(got, steps):
            same(g, w)


# -- one-pass envelopes of lines against a fold of pairwise merges ----------------


def line_pl(d, lo, hi, ab):
    """The line with values ``ab`` at ``lo`` and ``hi`` (over ``d``) as a PL."""
    return _pl(d, (lo, hi), ab) if lo != hi else _pl(d, (lo,), (ab[0],))


def fold(pls, upper):
    return reduce(lambda a, b: a.max_with(b) if upper else a.min_with(b), pls)


def same_function(got, want):
    """Equal values at the union of both breakpoint lists, on one domain."""
    assert (got.xs[0], got.xs[-1]) == (want.xs[0], want.xs[-1])
    for x in sorted(set(got.xs) | set(want.xs)):
        assert ref_value_at(got.xs, got.ys, x) == ref_value_at(want.xs, want.ys, x), x


def no_redundant_breakpoint(pl):
    """Each inner breakpoint is a change of slope: a change of line."""
    pts = list(zip(pl.xn, pl.yn))
    for (x0, y0), (x1, y1), (x2, y2) in zip(pts, pts[1:], pts[2:]):
        assert (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0), pl


def line_cases():
    """``(d, lo, hi, lines)``: the named special cases, then seeded random
    lines on seeded intervals and denominators."""
    yield 1, 0, 6, [(1, 3), (4, 6)]  # parallel
    yield 2, -3, 5, [(1, 3), (4, 6), (-2, 0)]  # parallel, three of them
    yield 3, 0, 6, [(2, 5), (2, 5)]  # coincident
    yield 3, 0, 6, [(2, 5), (7, -1), (2, 5)]  # coincident pair crossed by a third
    yield 1, 0, 4, [(2, 5), (2, -1)]  # meeting exactly at lo
    yield 1, 0, 4, [(7, 3), (-2, 3)]  # meeting exactly at hi
    yield 5, 0, 4, [(2, 5), (2, -1), (0, 3), (6, 3)]  # meeting at lo and at hi
    yield 1, 0, 4, [(7, 3), (-2, 3), (3, 3)]  # three lines through one point at hi
    yield 1, 0, 4, [(2, 5), (2, -1), (2, 2)]  # three lines through one point at lo
    yield 3, -2, 5, [(1, 4), (7, 4), (-5, 4), (0, 9)]  # three at hi, a fourth crossing them
    yield 3, -2, 5, [(4, 1), (4, 7), (4, -5), (9, 0)]  # three at lo, a fourth crossing them
    yield 1, 0, 3, [(4, 4), (2, 6), (6, 2)]  # three lines through one point, off the grid
    yield 7, 1, 5, [(0, 6), (3, 3), (6, 0)]  # three lines through one point, on the grid
    yield 4, 2, 2, [(3, 3), (-1, -1), (5, 5)]  # a one-point interval
    yield 1, 0, 1, [(0, 3), (2, 0)]  # crossing at 2/5: a finer denominator
    yield 6, 0, 7, [(0, 5), (3, 1), (4, 4)]  # crossings at sevenths and ninths of d
    rng = random.Random("rtrees-tests-pl-envelope")
    for _ in range(400):
        d = rng.choice((1, 3, 4, 6, 7))
        lo = rng.randrange(-6, 6)
        hi = lo + rng.choice((0, 1, 2, 3, 5, 9))
        lines = []
        for _ in range(rng.randint(1, 5)):
            a = rng.randrange(-9, 10)
            lines.append((a, a) if lo == hi else (a, rng.randrange(-9, 10)))
        if rng.random() < 0.3:
            lines.append(rng.choice(lines))  # a coincident copy
        if rng.random() < 0.3 and lo != hi:
            a, b = rng.choice(lines)
            lines.append((a + 2, b + 2))  # a parallel one
        yield d, lo, hi, lines


def test_envelope_equals_a_fold_of_pairwise_merges():
    finer = 0
    for d, lo, hi, lines in line_cases():
        pls = [line_pl(d, lo, hi, ab) for ab in lines]
        for upper in (True, False):
            got = envelope(d, lo, hi, lines) if upper else envelope(d, lo, hi, (), lines)
            same_function(got, fold(pls, upper))
            no_redundant_breakpoint(got)
            finer += d % got.d != 0
    assert finer > 20  # crossings off the grid of d


def test_max_of_lines_and_a_min_of_lines_equals_a_fold():
    rng = random.Random("rtrees-tests-pl-max-min")
    cases = list(line_cases())
    for d, lo, hi, lines in cases:
        for _ in range(3):
            k = rng.randint(0, len(lines))
            ups, downs = lines[:k], lines[k:]
            if rng.random() < 0.3 and ups and downs:
                downs.append(ups[0])  # a line on both sides
            parts = [line_pl(d, lo, hi, ab) for ab in ups]
            if downs:
                parts.append(fold([line_pl(d, lo, hi, ab) for ab in downs], False))
            got = envelope(d, lo, hi, ups, downs)
            same_function(got, fold(parts, True))
            no_redundant_breakpoint(got)
