"""Tree generators: primitives, random corpora, richly-branching
extensions, degree families, and sampled balls of the step-function tree.
All generators are deterministic functions of their parameters and seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .rationals import as_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    TreeSkeleton,
    Vertex,
    canonicalize,
    distance,
    gensym,
    grid_points,
    materialize,
    normalize_point,
)
from .matrices import MetricMatrix, realize_tree


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
    if k < 1:
        raise ValueError("a star needs at least one leg")
    r = as_rat(r)
    return TreeSkeleton(
        basepoint, [(basepoint, f"l{i}", r) for i in range(1, k + 1)]
    )


def caterpillar(spine: Sequence, legs: Sequence, basepoint: str = "p") -> TreeSkeleton:
    """A spine of consecutive segments with one leg at each interior joint."""
    spine = [as_rat(s) for s in spine]
    legs = [as_rat(s) for s in legs]
    if len(legs) != max(0, len(spine) - 1):
        raise ValueError("need one leg per interior spine joint")
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
    "k-star": (2, lambda k, r: k_star(int(k), r)),
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
        raise ValueError(f"unknown primitive {kind!r}") from None
    if arity is not None and len(params) != arity:
        raise ValueError(f"primitive {kind!r} takes {arity} parameters, got {len(params)}")
    return maker(*params)


# -- random corpus ----------------------------------------------------------------


def random_rat(rng: random.Random, lo, hi, max_den: int = 8) -> Fraction:
    """A random rational in [lo, hi] with denominator <= max_den."""
    lo, hi = as_rat(lo), as_rat(hi)
    den = rng.choice([d for d in (1, 2, 3, 4, 6, 8) if d <= max_den])
    lo_num = (lo * den).__ceil__()
    hi_num = (hi * den).__floor__()
    if hi_num < lo_num:
        return lo
    return Fraction(rng.randint(lo_num, hi_num), den)


def random_tree(
    seed_or_rng,
    max_nodes: int = 10,
    radius=Fraction(2),
    min_nodes: int = 2,
) -> TreeSkeleton:
    """A random valid skeleton of radius <= the bound, grown by attaching
    fresh leaves at random existing points (vertices or edge interiors)."""
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
        if length <= 0:
            continue
        mat = materialize(tree, [pt], prefix=f"j{counter}_")
        node = mat.node_for(normalize_point(tree, pt))
        tree = mat.graft([(node, f"n{counter}", length)])
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


def _hang_at_net(
    tree: TreeSkeleton,
    r: Fraction,
    net: list[PointRef],
    prefix: str,
    tip_prefixes: Iterator[str],
    count: Callable[[TreeSkeleton, str, Fraction], int],
) -> TreeSkeleton:
    """Cut ``tree`` at the net points and hang ``count(work, node, l)`` fresh
    edges of length ``l = r - d(p, x)`` at each net point ``x`` strictly
    inside the radius sphere, one tip name from ``tip_prefixes`` per edge."""
    mat = materialize(tree, net, prefix=prefix)
    work = mat.tree
    taken = set(work.nodes())
    fresh = []
    for pt in net:
        node = mat.node_for(normalize_point(tree, pt))
        l = r - work.dist_to_basepoint(node)
        if l <= 0:
            continue
        for _ in range(count(work, node, l)):
            fresh.append((node, gensym(taken, next(tip_prefixes)), l))
    return mat.graft(fresh)


def rb_extend(tree: TreeSkeleton, r, depth: int) -> TreeSkeleton:
    """Attach sphere-reaching witness branches at every net point.

    The net consists of all vertices plus points spaced ``r / 2**depth``
    along every edge.  Each net point strictly inside the radius sphere is
    given enough fresh edges of length exactly ``r - d(p, x)`` to carry
    three branches of full reach.  Deterministic in (tree, depth).
    """
    r = as_rat(r)
    if depth < 0:
        raise ValueError("depth must be >= 0")

    def missing(work: TreeSkeleton, node: str, l: Fraction) -> int:
        return 3 - sum(1 for reach in work.reaches_at(node) if reach >= l)

    net = grid_points(tree, r / (2 ** depth))
    tips = (f"w{i}_" for i in itertools.count(1))
    return _hang_at_net(tree, r, net, "net", tips, missing)


# -- degree families ----------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    depth: int
    radius: Fraction
    degree_set: tuple[int, ...]
    mesh: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "radius", as_rat(self.radius))
        degrees = tuple(sorted(set(int(k) for k in self.degree_set)))
        if not degrees or any(k < 3 for k in degrees):
            raise ValueError("degree set must be nonempty with all degrees >= 3")
        object.__setattr__(self, "degree_set", degrees)
        if self.mesh is not None:
            object.__setattr__(self, "mesh", as_rat(self.mesh))


def degree_family_tree(cfg: GeneratorConfig) -> TreeSkeleton:
    """Finite truncation of the dense-branching construction: rounds of
    halving nets, each enriching previously untouched degree-2 points up to
    the round's prescribed degree with sphere-reaching edges.

    Every branch point's degree lies in the configured set, and each
    configured degree occurs once enough rounds have run.
    """
    r = cfg.radius
    degrees = cfg.degree_set
    mesh0 = cfg.mesh if cfg.mesh is not None else r / 2
    tree = segment(r, basepoint="p", tip="z0")
    tips = (f"r{i}_" for i in itertools.count(1))
    for j in range(cfg.depth + 1):
        k_j = degrees[j % len(degrees)]

        def enrich(work: TreeSkeleton, node: str, l: Fraction) -> int:
            # points enriched in an earlier round already have their degree
            return k_j - 2 if work.degree(node) == 2 else 0

        grid = grid_points(tree, mesh0 / (2 ** j))
        net = [pt for pt in grid if isinstance(pt, EdgePoint)]
        tree = _hang_at_net(tree, r, net, f"d{j}_", tips, enrich)
    return tree


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
    agreement prefix of the two functions."""
    horizon = min(f.rho, g.rho)
    cuts = sorted(
        set(b for b in f.breakpoints if b < horizon)
        | set(b for b in g.breakpoints if b < horizon)
    )

    def value_at(fn: StepFunction, t: Fraction) -> int:
        val = 0
        for b, v in zip(fn.breakpoints, fn.values):
            if b <= t:
                val = v
            else:
                break
        return val

    s = horizon
    for b in cuts:
        if value_at(f, b) != value_at(g, b):
            s = b
            break
    return (f.rho - s) + (g.rho - s)


def _zero_function() -> StepFunction:
    return StepFunction((), (), Fraction(0))


def _random_step_function(rng: random.Random, mu: int, scale: Fraction) -> StepFunction:
    k = rng.randint(1, 3)
    cuts = sorted(
        {random_rat(rng, -scale / 2, scale / 2, max_den=8) for _ in range(k)}
    )
    values = []
    prev = 0
    for _ in cuts:
        choices = [v for v in range(mu) if v != prev]
        v = rng.choice(choices)
        values.append(v)
        prev = v
    if values and values[0] == 0:
        values[0] = 1 if mu > 1 else 0
    rho = cuts[-1] + random_rat(rng, 0, scale / 2, max_den=8) if cuts else Fraction(0)
    # re-canonicalize after the first-value fix
    bps, vals = [], []
    prev = 0
    for b, v in zip(cuts, values):
        if v != prev:
            bps.append(b)
            vals.append(v)
            prev = v
    return StepFunction(tuple(bps), tuple(vals), rho)


def au_sample_ball(
    mu_alphabet: int, count: int, radius, seed: int
) -> tuple[tuple[StepFunction, ...], TreeSkeleton]:
    """Deterministically sample step functions within the given distance of
    the zero basepoint function and realize their exact distance matrix."""
    if mu_alphabet < 3:
        raise ValueError("the richly branching regime needs an alphabet >= 3")
    if count < 1:
        raise ValueError("need at least one sample")
    radius = as_rat(radius)
    rng = random.Random(seed)
    samples: list[StepFunction] = [_zero_function()]
    attempts = 0
    while len(samples) < count and attempts < 1000 * count:
        attempts += 1
        cand = _random_step_function(rng, mu_alphabet, radius)
        if au_distance(cand, samples[0]) > radius:
            continue
        if any(au_distance(cand, f) == 0 for f in samples):
            continue
        samples.append(cand)
    if len(samples) < count:
        raise RuntimeError("sampling failed to produce enough distinct functions")

    labels = tuple(f"f{i}" for i in range(count))
    n = count
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = au_distance(samples[i], samples[j])
            entries[i][j] = d
            entries[j][i] = d
    matrix = MetricMatrix(labels, tuple(tuple(row) for row in entries))
    tree = realize_tree(matrix, basepoint_label="f0")
    return tuple(samples), tree
