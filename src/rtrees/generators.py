"""Tree generators: primitives, random corpora, richly-branching
extensions, degree families, and sampled balls of the step-function tree.
All generators are deterministic functions of their parameters.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .rationals import as_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    TreeSkeleton,
    Vertex,
    _TreeBuilder,
    canonicalize,
    distance,
    hang,
    normalize_point,
)
from .matrices import MetricMatrix, realize_tree


class GeneratorArgumentError(ValueError):
    """A generator parameter out of its range; ``rtree generate`` exits 2."""


# -- primitives -------------------------------------------------------------------


def segment(length, basepoint: str = "p", tip: str = "q") -> TreeSkeleton:
    """A single segment from the basepoint; radius exactly its length."""
    length = as_rat(length)
    return TreeSkeleton(basepoint, [(basepoint, tip, length)])


def tripod(a, b, c, basepoint: str = "p") -> TreeSkeleton:
    """Three legs at a center ``y``; the basepoint sits at the end of the
    first leg.  ``tripod(1, 1, 1)`` is the standard unit tripod."""
    a, b, c = as_rat(a), as_rat(b), as_rat(c)
    return TreeSkeleton(
        basepoint,
        [(basepoint, "y", a), ("y", "a", b), ("y", "b", c)],
    )


def k_star(k: int, r, basepoint: str = "p") -> TreeSkeleton:
    """``k`` legs of length ``r`` at the basepoint; center degree ``k``."""
    if as_rat(k).denominator != 1:
        raise GeneratorArgumentError(f"leg count must be an integer, got {k}")
    if k < 1:
        raise GeneratorArgumentError("a star needs at least one leg")
    r = as_rat(r)
    return TreeSkeleton(
        basepoint, [(basepoint, f"l{i}", r) for i in range(1, int(k) + 1)]
    )


def caterpillar(spine: Sequence, legs: Sequence, basepoint: str = "p") -> TreeSkeleton:
    """A spine of consecutive segments with one leg at each interior joint."""
    spine = [as_rat(s) for s in spine]
    legs = [as_rat(s) for s in legs]
    if len(legs) != max(0, len(spine) - 1):
        raise GeneratorArgumentError("need one leg per interior spine joint")
    edges = []
    prev = basepoint
    for i, s in enumerate(spine, start=1):
        node = f"s{i}"
        edges.append((prev, node, s))
        prev = node
    for i, leg in enumerate(legs, start=1):
        edges.append((f"s{i}", f"h{i}", leg))
    return TreeSkeleton(basepoint, edges)


# kind -> (number of parameters, or None for any; maker)
_PRIMITIVES = {
    "segment": (1, segment),
    "tripod": (3, tripod),
    "k-star": (2, k_star),
    "caterpillar": (
        None,
        lambda *params: caterpillar(
            params[: (len(params) + 1) // 2], params[(len(params) + 1) // 2:]
        ),
    ),
}


def build_primitive(kind: str, params: Sequence) -> TreeSkeleton:
    """Dispatch for the named primitive shapes."""
    try:
        arity, maker = _PRIMITIVES[kind]
    except KeyError:
        raise GeneratorArgumentError(f"unknown primitive {kind!r}") from None
    if arity is not None and len(params) != arity:
        raise GeneratorArgumentError(f"primitive {kind!r} takes {arity} parameters, got {len(params)}")
    return maker(*params)


# -- random corpus ----------------------------------------------------------------


def random_rat(rng: random.Random, lo, hi) -> Fraction:
    """A random rational in [lo, hi] with denominator 1, 2, 3, 4, 6 or 8:
    the :func:`_draw` of the bounds over 24 times their denominators' lcm."""
    lo, hi = as_rat(lo), as_rat(hi)
    n = 24 * lcm(lo.denominator, hi.denominator)
    lo_n, hi_n = lo.numerator * (n // lo.denominator), hi.numerator * (n // hi.denominator)
    return Fraction(_draw(rng, lo_n, hi_n, n), n)


def random_tree(
    seed_or_rng,
    max_nodes: int = 10,
    radius=Fraction(2),
    min_nodes: int = 2,
) -> TreeSkeleton:
    """A random valid skeleton of radius <= the bound, grown by attaching
    fresh leaves at random existing points (vertices or edge interiors).

    ``min_nodes`` and ``max_nodes`` bound the leaves hung, plus one, not the
    nodes: at most ``max(1, max_nodes - 1)`` degree-1 nodes besides the
    basepoint, but a leaf hung inside an edge adds a junction too."""
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)
    radius = as_rat(radius)
    n_leaves = rng.randint(max(1, min_nodes - 1), max(1, max_nodes - 1))
    tree = TreeSkeleton("p", (), extra_nodes=["p"])
    counter = 1
    for _ in range(n_leaves):
        pt = random_point(rng, tree)
        budget = radius - distance(tree, Vertex(tree.basepoint), pt)
        if budget <= 0:
            continue
        length = random_rat(rng, budget / 4, budget)
        tree, _ = hang(tree, pt, length, f"n{counter}", f"j{counter}_")
        counter += 1
    return canonicalize(tree)


def random_point(rng: random.Random, tree: TreeSkeleton) -> PointRef:
    """A random point of the skeleton: a vertex or an edge-interior point
    with small-denominator rational offset."""
    edges = tree.edges()
    nodes = tree.nodes()
    if not edges or rng.random() < 0.4:
        return Vertex(rng.choice(nodes))
    u, v, length = rng.choice(edges)
    den = rng.choice([2, 3, 4, 8])
    num = rng.randint(0, den)
    return normalize_point(tree, EdgePoint(u, v, length * Fraction(num, den)))


# -- richly branching extension -----------------------------------------------------


def rb_extend(tree: TreeSkeleton, r, depth: int) -> TreeSkeleton:
    """Attach sphere-reaching witness branches at every net point.

    The net consists of all vertices plus points spaced ``r / 2**depth``
    along every edge.  Each net point strictly inside the radius sphere is
    given enough fresh edges of length exactly ``r - d(p, x)`` to carry
    three branches of full reach.  Deterministic in (tree, depth).
    """
    r = as_rat(r)
    if depth < 0:
        raise GeneratorArgumentError("depth must be >= 0")
    if r <= 0:
        raise GeneratorArgumentError("radius must be positive")

    mesh = r / (2 ** depth)  # r is a multiple of mesh
    D = tree._root_data()[3]
    b = _TreeBuilder(tree, mesh.denominator)
    scale, h, table = b.den // D, b.h, tree._reach_num()
    top = r.numerator * (b.den // r.denominator)
    cuts = b.net(mesh.numerator * (b.den // mesh.denominator), "net")
    # a cut changes no reach: the vertices' reaches, then each cut's towards
    # both ends of its source edge, all read off ``tree``
    net = [(x, [table[(x, nb)] * scale for nb in tree._adj[x]]) for x in tree.nodes()]
    net += [
        (c, [table[(x, up)] * scale - (h[x] - h[c]), table[(up, x)] * scale - (h[c] - h[up])])
        for c, x, up in cuts
    ]
    tips = (f"w{i}_" for i in itertools.count(1))
    for node, reaches in net:
        l = top - h[node]
        if l <= 0:
            continue
        for _ in range(3 - sum(1 for reach in reaches if reach >= l)):
            p = next(tips)
            b.hang(node, l, p + "1", p)
    return b.freeze()


# -- degree families ----------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of :func:`degree_family_tree`, which reads no randomness:
    ``seed`` is kept for callers that record it and does not change the tree."""

    seed: int
    depth: int
    radius: Fraction
    degree_set: tuple[int, ...]
    mesh: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "radius", as_rat(self.radius))
        if any(as_rat(k).denominator != 1 for k in self.degree_set):
            bad = ", ".join(map(str, self.degree_set))
            raise GeneratorArgumentError(f"degrees must be integers, got {bad}")
        degrees = tuple(sorted(set(int(k) for k in self.degree_set)))
        if not degrees or any(k < 3 for k in degrees):
            raise GeneratorArgumentError("degree set must be nonempty with all degrees >= 3")
        if self.depth < 0:
            raise GeneratorArgumentError("depth must be >= 0")
        if self.radius <= 0:
            raise GeneratorArgumentError("radius must be positive")
        object.__setattr__(self, "degree_set", degrees)
        if self.mesh is not None:
            object.__setattr__(self, "mesh", as_rat(self.mesh))
            if self.mesh <= 0:
                raise GeneratorArgumentError("mesh must be positive")


def degree_family_tree(cfg: GeneratorConfig) -> TreeSkeleton:
    """Finite truncation of the dense-branching construction: rounds of
    halving nets, each enriching previously untouched degree-2 points up to
    the round's prescribed degree with sphere-reaching edges.

    Every branch point's degree lies in the configured set, and each
    configured degree occurs once enough rounds have run.  ``cfg.seed`` does
    not change the tree.
    """
    r = cfg.radius
    degrees = cfg.degree_set
    last = (cfg.mesh if cfg.mesh is not None else r / 2) / 2 ** cfg.depth  # every mesh a multiple
    b = _TreeBuilder(segment(r, basepoint="p", tip="z0"), last.denominator)
    top = r.numerator * (b.den // r.denominator)
    step = last.numerator * (b.den // last.denominator)
    tips = (f"r{i}_" for i in itertools.count(1))
    for j in range(cfg.depth + 1):
        extra = degrees[j % len(degrees)] - 2
        # a cut lies strictly below its link's lower end, so inside the sphere
        for node, _, _ in b.net(step << (cfg.depth - j), f"d{j}_"):
            for _ in range(extra):
                p = next(tips)
                b.hang(node, top - b.h[node], p + "1", p)
    return b.freeze()


def branch_degree_multiset(tree: TreeSkeleton) -> tuple[int, ...]:
    """Sorted degrees of all branch points (degree >= 3)."""
    return tuple(sorted(tree.degree(n) for n in tree.nodes() if tree.degree(n) >= 3))


# -- the universal step-function tree ------------------------------------------------


@dataclass(frozen=True)
class StepFunction:
    """Eventually-zero step function on ``(-inf, rho)``, piecewise constant
    from the right, with finitely many jumps.

    ``values[i]`` holds on ``[breakpoints[i], breakpoints[i+1])`` and the
    function is 0 before the first breakpoint.  Canonical form: adjacent
    values differ and the first value is nonzero.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[int, ...]
    rho: Fraction

    def __post_init__(self):
        bps = tuple(as_rat(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "rho", as_rat(self.rho))
        if len(bps) != len(self.values):
            raise ValueError("breakpoints and values must align")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if bps and bps[-1] > self.rho:
            raise ValueError("domain end before the last breakpoint")
        if any(v < 0 for v in self.values):
            raise ValueError("values are alphabet symbols >= 0")
        if self.values and self.values[0] == 0:
            raise ValueError("canonical form: first value must differ from 0")
        if any(self.values[i] == self.values[i + 1] for i in range(len(self.values) - 1)):
            raise ValueError("canonical form: adjacent values must differ")


def au_distance(f: StepFunction, g: StepFunction) -> Fraction:
    """d(f, g) = (rho_f - s) + (rho_g - s), where s is the supremum of the
    agreement prefix: canonical form makes each ``(breakpoint, value)`` list
    unique, so s is where the lists part, capped at ``min(rho_f, rho_g)``."""
    return _au((f.breakpoints, f.values, f.rho), (g.breakpoints, g.values, g.rho))


def _au(f, g):
    """:func:`au_distance` of two ``(breakpoints, values, rho)`` triples, on
    ``Fraction``s or on integer numerators over one denominator alike."""
    (fb, fv, fr), (gb, gv, gr) = f, g
    horizon = fr if fr < gr else gr
    steps = itertools.zip_longest(zip(fb, fv), zip(gb, gv), fillvalue=(horizon, -1))
    s = min(horizon, next((min(a[0], b[0]) for a, b in steps if a != b), horizon))
    return fr + gr - 2 * s


def _draw(rng: random.Random, lo: int, hi: int, n: int) -> int:
    """A random rational in ``[lo / n, hi / n]`` as a numerator over ``n``, a
    multiple of 24: a denominator ``den`` is chosen from 1, 2, 3, 4, 6 and 8
    (24 is their lcm), then a uniform multiple of ``n / den`` in ``[lo,
    hi]``, or ``lo`` itself if there is none."""
    unit = n // rng.choice((1, 2, 3, 4, 6, 8))
    lo_num, hi_num = -(-lo // unit), hi // unit
    if hi_num < lo_num:
        return lo
    return rng.randint(lo_num, hi_num) * unit


def _draw_step(rng: random.Random, mu: int, n: int, half: int):
    """A step function as integer ``(breakpoints, values, rho)`` over ``n``:
    one to three breakpoints in ``[-half, half]`` and ``rho`` at most
    ``half`` past the last.  Canonical by construction: each value differs
    from the one before, the first from 0."""
    k = rng.randint(1, 3)
    cuts = sorted({_draw(rng, -half, half, n) for _ in range(k)})
    values = [0]
    for _ in cuts:
        values.append(rng.choice([v for v in range(mu) if v != values[-1]]))
    return tuple(cuts), tuple(values[1:]), cuts[-1] + _draw(rng, 0, half, n)


def au_sample_ball(
    mu_alphabet: int, count: int, radius, seed: int
) -> tuple[tuple[StepFunction, ...], TreeSkeleton]:
    """Deterministically sample step functions within the given distance of
    the zero basepoint function and realize their exact distance matrix.
    Every breakpoint is drawn as an integer numerator over 24 times the
    radius's denominator, and every distance is compared in those integers;
    a :class:`StepFunction` is built only for each returned sample."""
    if mu_alphabet < 3:
        raise GeneratorArgumentError("the richly branching regime needs an alphabet >= 3")
    if count < 1:
        raise GeneratorArgumentError("need at least one sample")
    radius = as_rat(radius)
    if radius <= 0:
        raise GeneratorArgumentError("radius must be positive")
    n, half = 24 * radius.denominator, 12 * radius.numerator  # the radius is 2 * half over n
    rng = random.Random(seed)
    nums = [((), (), 0)]  # the zero function
    attempts = 0
    while len(nums) < count and attempts < 1000 * count:
        attempts += 1
        cand = _draw_step(rng, mu_alphabet, n, half)
        if _au(cand, nums[0]) > 2 * half:
            continue
        # distance 0, not list equality: a step starting at rho adds no point
        if any(_au(cand, f) == 0 for f in nums):
            continue
        nums.append(cand)
    if len(nums) < count:
        raise ValueError("sampling failed to produce enough distinct functions")

    labels = tuple(f"f{i}" for i in range(count))
    ints = [[0] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            ints[i][j] = ints[j][i] = _au(nums[i], nums[j])
    tree = realize_tree(MetricMatrix._of_ints(labels, ints, n), basepoint_label="f0")
    samples = tuple(
        StepFunction(tuple(Fraction(b, n) for b in bs), vs, Fraction(rho, n)) for bs, vs, rho in nums
    )
    return samples, tree
