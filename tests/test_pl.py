"""The PL kernel against a test-local reference: the point-by-point
evaluation and the sort-then-evaluate merge the kernel replaced."""

import random
from fractions import Fraction

from rtrees.pl import PL


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
