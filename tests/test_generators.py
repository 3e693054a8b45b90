import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from rtrees import (
    EdgePoint,
    GeneratorConfig,
    GlueSpec,
    MetricMatrix,
    SkeletonError,
    StepFunction,
    SubtreeMap,
    TreeSkeleton,
    Vertex,
    amalgamate,
    au_distance,
    au_sample_ball,
    branch_degree_multiset,
    build_primitive,
    caterpillar,
    degree_family_tree,
    distance,
    four_point_check,
    glue_family,
    k_star,
    random_tree,
    rb_extend,
    realize_tree,
    realize_type,
    segment,
    tree_to_matrix,
    tripod,
    type_of,
    validate,
)
from conftest import random_step_function, rng_for, zero_function
from rtrees import generators, treeio
from rtrees.generators import GeneratorArgumentError, random_rat
from rtrees.matrices import node_of_label
from rtrees.skeleton import _TreeBuilder


R = Fraction(2)


def test_primitives():
    t = tripod(1, 1, 1)
    assert t.basepoint == "p" and t.degree("y") == 3
    assert validate(t, 2).ok

    s = segment(R)
    assert validate(s, R).ok
    assert max(s.dist_to_basepoint(n) for n in s.nodes()) == R

    star = k_star(5, R)
    assert star.degree("p") == 5
    assert validate(star, R).ok

    cat = caterpillar([1, Fraction(1, 2)], [Fraction(1, 2)])
    assert validate(cat, R).ok

    assert build_primitive("tripod", [1, 1, 1]) == t
    with pytest.raises(ValueError):
        build_primitive("pentagon", [1])
    with pytest.raises(ValueError):
        build_primitive("tripod", [1])
    assert build_primitive("k-star", [4, R]) == k_star(4, R)
    with pytest.raises(ValueError, match="leg count must be an integer"):
        build_primitive("k-star", [Fraction(5, 2), R])


def test_random_trees_are_valid():
    for seed in range(20):
        t = random_tree(rng_for(seed), max_nodes=9, radius=R)
        assert validate(t, R).ok


def test_random_tree_bounds_its_leaves_not_its_nodes():
    # max_nodes bounds the leaves hung, plus one: a leaf hung inside an edge
    # adds a junction too, so the node count may exceed it
    over = 0
    for max_nodes in (1, 2, 3, 4, 5, 7, 9, 12):
        for seed in range(300):
            t = random_tree(seed, max_nodes=max_nodes, radius=R)
            leaves = [n for n in t.nodes() if n != t.basepoint and t.degree(n) == 1]
            assert len(leaves) <= max(1, max_nodes - 1), (max_nodes, seed)
            over += len(t.nodes()) > max_nodes
    assert over > 0
    assert all(len(random_tree(seed, max_nodes=1).nodes()) == 2 for seed in range(20))


def test_rb_extend_determinism_and_contract(tripod):
    e1 = rb_extend(tripod, R, 2)
    e2 = rb_extend(tripod, R, 2)
    assert e1 == e2
    assert validate(e1, R).ok
    # new leaves reach the sphere exactly
    for node in e1.nodes():
        if node not in tripod.nodes() and e1.degree(node) == 1:
            assert e1.dist_to_basepoint(node) == R


def test_rb_extend_refuses_a_second_component():
    # one connectivity check, naming the least node off the basepoint's
    # component
    for apart, node in (
        (TreeSkeleton("p", [("p", "a", 1), ("z", "w", 1)]), "w"),
        (TreeSkeleton("p", [("p", "a", 1)], extra_nodes=["z"]), "z"),
    ):
        for depth in (0, 2):
            with pytest.raises(
                SkeletonError, match=f"^node '{node}' not connected to the basepoint$"
            ):
                rb_extend(apart, R, depth)


def test_degree_family_tree():
    cfg = GeneratorConfig(seed=0, depth=2, radius=R, degree_set=(3,))
    t = degree_family_tree(cfg)
    assert validate(t, R).ok
    degs = branch_degree_multiset(t)
    assert degs and set(degs) == {3}

    cfg2 = GeneratorConfig(seed=0, depth=3, radius=R, degree_set=(3, 4))
    t2 = degree_family_tree(cfg2)
    assert set(branch_degree_multiset(t2)) == {3, 4}

    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, depth=1, radius=R, degree_set=(2,))
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, depth=1, radius=R, degree_set=())
    with pytest.raises(GeneratorArgumentError, match="degrees must be integers, got 7/2, 4"):
        GeneratorConfig(seed=0, depth=1, radius=R, degree_set=(Fraction(7, 2), 4))
    assert GeneratorConfig(0, 1, R, (Fraction(4), 3)).degree_set == (3, 4)
    for mesh in (0, -1):
        with pytest.raises(GeneratorArgumentError, match="mesh must be positive"):
            GeneratorConfig(seed=0, depth=1, radius=R, degree_set=(3,), mesh=mesh)

    # the construction reads no randomness: the seed does not change the tree
    assert degree_family_tree(GeneratorConfig(7, 2, R, (3, 4))) == degree_family_tree(
        GeneratorConfig(0, 2, R, (3, 4))
    )


def test_net_extensions_freeze_once_per_round(monkeypatch, tripod):
    """A degree family grows all its rounds on one builder, so it freezes
    once at every depth, like ``rb_extend``'s single round."""
    calls = []
    freeze = _TreeBuilder.freeze
    monkeypatch.setattr(_TreeBuilder, "freeze", lambda self: calls.append(self) or freeze(self))
    rb_extend(tripod, R, 2)
    assert len(calls) == 1
    for depth in range(4):
        calls.clear()
        degree_family_tree(GeneratorConfig(0, depth, R, (3, 4)))
        assert len(calls) == 1


def test_degree_family_trees_distinguished_by_degree_sets():
    t3 = degree_family_tree(GeneratorConfig(seed=0, depth=2, radius=R, degree_set=(3,)))
    t4 = degree_family_tree(GeneratorConfig(seed=0, depth=2, radius=R, degree_set=(4,)))
    assert set(branch_degree_multiset(t3)).isdisjoint(set(branch_degree_multiset(t4)))


def test_step_function_canonical_form():
    f = StepFunction((Fraction(-1),), (1,), Fraction(0))
    assert f.rho == 0
    with pytest.raises(ValueError):
        StepFunction((Fraction(0), Fraction(0)), (1, 2), Fraction(1))  # not increasing
    with pytest.raises(ValueError):
        StepFunction((Fraction(0),), (0,), Fraction(1))  # first value zero
    with pytest.raises(ValueError):
        StepFunction((Fraction(0), Fraction(1)), (1, 1), Fraction(2))  # no jump
    with pytest.raises(ValueError):
        StepFunction((Fraction(1),), (1,), Fraction(0))  # rho before breakpoint


def test_au_distance_examples():
    zero0 = StepFunction((), (), Fraction(0))
    assert au_distance(zero0, zero0) == 0

    g = StepFunction((Fraction(-1),), (1,), Fraction(0))
    # they agree on (-inf, -1) only: s = -1, d = (0 + 1) + (0 + 1) = 2
    assert au_distance(zero0, g) == 2

    zero1 = StepFunction((), (), Fraction(1))
    assert au_distance(zero1, zero0) == 1  # s = 0

    h1 = StepFunction((Fraction(-1),), (1,), Fraction(1))
    h2 = StepFunction((Fraction(-1),), (2,), Fraction(2))
    assert au_distance(h1, h2) == (1 - (-1)) + (2 - (-1))


def _au_distance_by_scan(f, g):
    """Reference: the values of both functions at every breakpoint below
    ``min(rho_f, rho_g)``, in order, up to the first that differ."""
    horizon = min(f.rho, g.rho)

    def value_at(fn, t):
        val = 0
        for b, v in zip(fn.breakpoints, fn.values):
            if b > t:
                break
            val = v
        return val

    cuts = sorted({b for b in f.breakpoints + g.breakpoints if b < horizon})
    s = next((b for b in cuts if value_at(f, b) != value_at(g, b)), horizon)
    return (f.rho - s) + (g.rho - s)


def _step_family(rng):
    """Step functions that share prefixes of one base function and then part
    from it; some end at their last breakpoint."""
    def extend(bps, vals, n):
        bps, vals = list(bps), list(vals)
        t = bps[-1] if bps else Fraction(rng.randint(-8, 0), 4)
        for _ in range(n):
            t += Fraction(rng.randint(1, 4), 4)
            bps.append(t)
            vals.append(rng.choice([v for v in range(4) if v != (vals[-1] if vals else 0)]))
        rho = (bps[-1] if bps else t) + Fraction(rng.randint(0, 2), 4)
        return StepFunction(tuple(bps), tuple(vals), rho)

    base = extend((), (), rng.randint(0, 4))
    family = [base]
    for _ in range(4):
        k = rng.randint(0, len(base.breakpoints))
        family.append(extend(base.breakpoints[:k], base.values[:k], rng.randint(0, 2)))
    return family


def test_au_distance_matches_the_pointwise_scan():
    rng = rng_for("au-scan")
    fs = [f for _ in range(12) for f in _step_family(rng)]
    assert any(f.breakpoints and f.breakpoints[-1] == f.rho for f in fs)
    parted_after_a_shared_step = 0
    for f in fs:
        for g in fs:
            assert au_distance(f, g) == _au_distance_by_scan(f, g), (f, g)
            shared = f.breakpoints[:1] == g.breakpoints[:1] and f.values[:1] == g.values[:1]
            parted_after_a_shared_step += bool(f.breakpoints) and shared and f != g
    assert parted_after_a_shared_step > 50


def test_au_distance_metric_and_four_point():
    rng = rng_for("au")
    fs = [zero_function()] + [random_step_function(rng, 4, R) for _ in range(8)]
    for f in fs:
        assert au_distance(f, f) == 0
    for f in fs:
        for g in fs:
            assert au_distance(f, g) == au_distance(g, f)
            assert au_distance(f, g) >= 0
    m = [[au_distance(f, g) for g in fs] for f in fs]
    labels = tuple(f"s{i}" for i in range(len(fs)))
    from rtrees import MetricMatrix

    # zero distances may occur between distinct random samples; merge them
    # by checking the 4-point condition directly on the raw matrix
    mm = MetricMatrix(labels, tuple(tuple(row) for row in m))
    assert four_point_check(mm) is True


def test_au_sample_ball():
    fs, tree = au_sample_ball(3, 4, R, seed=5)
    assert len(fs) == 4
    assert validate(tree, 2 * R).ok  # realized tree radius can reach the ball diameter
    # distances realize exactly
    names = [f"f{i}" for i in range(4)]
    pts = [Vertex(node_of_label(tree, s)) for s in names]
    m = tree_to_matrix(tree, pts, labels=names)
    for i in range(4):
        for j in range(4):
            assert m.entries[i][j] == au_distance(fs[i], fs[j])
    # determinism
    fs2, tree2 = au_sample_ball(3, 4, R, seed=5)
    assert fs2 == fs and tree2 == tree

    solo_fs, solo = au_sample_ball(3, 1, R, seed=1)
    assert len(solo.nodes()) == 1

    with pytest.raises(ValueError):
        au_sample_ball(2, 3, R, seed=0)
    # a ball too small to hold two distinct functions
    with pytest.raises(ValueError, match="enough distinct functions"):
        au_sample_ball(3, 2, Fraction(1, 20), seed=0)
    # no ball at all: refused before any draw, whatever the count
    for radius, count in ((0, 2), (0, 1), (-1, 3)):
        with pytest.raises(GeneratorArgumentError, match="^radius must be positive$"):
            au_sample_ball(3, count, radius, seed=0)


def _reference_au_distance(f, g):
    """``au_distance`` as it stood on ``Fraction``s, one pass over the lists."""
    horizon = min(f.rho, g.rho)
    steps = itertools.zip_longest(
        zip(f.breakpoints, f.values), zip(g.breakpoints, g.values), fillvalue=(horizon, -1)
    )
    s = min(horizon, next((min(a[0], b[0]) for a, b in steps if a != b), horizon))
    return (f.rho - s) + (g.rho - s)


def _reference_random_rat(rng, lo, hi):
    """``random_rat`` as it stood on ``Fraction``s: a denominator from 1, 2,
    3, 4, 6 and 8, then a numerator between the rounded bounds, or ``lo``."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = rng.choice([1, 2, 3, 4, 6, 8])
    lo_num, hi_num = math.ceil(lo * den), math.floor(hi * den)
    if hi_num < lo_num:
        return lo
    return Fraction(rng.randint(lo_num, hi_num), den)


def _reference_sample_ball(mu_alphabet, count, radius, seed):
    """The step-function sampler as it stood on ``Fraction``s: every draw
    through ``_reference_random_rat``, every comparison on ``Fraction``
    distances."""
    radius = Fraction(radius)
    rng = random.Random(seed)

    def step_function():
        k = rng.randint(1, 3)
        cuts = sorted({_reference_random_rat(rng, -radius / 2, radius / 2) for _ in range(k)})
        values = [0]
        for _ in cuts:
            values.append(rng.choice([v for v in range(mu_alphabet) if v != values[-1]]))
        rho = cuts[-1] + _reference_random_rat(rng, 0, radius / 2)
        return StepFunction(tuple(cuts), tuple(values[1:]), rho)

    samples = [StepFunction((), (), Fraction(0))]
    attempts = 0
    while len(samples) < count and attempts < 1000 * count:
        attempts += 1
        cand = step_function()
        if _reference_au_distance(cand, samples[0]) > radius:
            continue
        if any(_reference_au_distance(cand, f) == 0 for f in samples):
            continue
        samples.append(cand)
    if len(samples) < count:
        raise ValueError("sampling failed to produce enough distinct functions")
    labels = tuple(f"f{i}" for i in range(count))
    entries = tuple(tuple(_reference_au_distance(f, g) for g in samples) for f in samples)
    return tuple(samples), realize_tree(MetricMatrix(labels, entries), basepoint_label="f0")


def _outcome(sample, *args):
    try:
        return sample(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_au_sample_ball_matches_the_fraction_sampler():
    cases = [
        (mu, count, radius, seed)
        for mu in (3, 4, 5)
        for count in range(1, 8)
        for radius in (Fraction(2), Fraction(3, 2), Fraction(1), Fraction(5, 7))
        for seed in range(4)
    ]
    # a ball too small for two distinct functions: every attempt is spent
    cases += [(mu, count, Fraction(1, 20), seed) for mu in (3, 4, 5) for count in (1, 2) for seed in (0, 1)]
    failed, drawn = 0, []
    for case in cases:
        want = _outcome(_reference_sample_ball, *case)
        got = _outcome(au_sample_ball, *case)
        assert got == want, case
        if isinstance(want[0], type):
            failed += 1
        else:
            drawn += got[0]
    assert failed == 6
    assert all(type(x) is Fraction for f in drawn for x in (*f.breakpoints, f.rho))
    # some sample ends on its last breakpoint, so the dedupe must compare distances
    assert any(f.breakpoints and f.breakpoints[-1] == f.rho for f in drawn)


def test_reference_sampler_does_not_route_through_the_sampler(monkeypatch):
    cases = [(3, 4, Fraction(2), 5), (4, 7, Fraction(5, 7), 1), (3, 2, Fraction(1, 20), 0)]
    want = [_outcome(au_sample_ball, *case) for case in cases]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the reference ran through the code it checks")

    for name in ("_draw", "_draw_step", "_au"):
        monkeypatch.setattr(generators, name, refuse)
    assert [_outcome(_reference_sample_ball, *case) for case in cases] == want
    with pytest.raises(AssertionError, match="through the code it checks"):
        au_sample_ball(*cases[0])


def test_random_rat_matches_the_fraction_draw():
    rng = rng_for("random-rat")
    bounds = [
        (Fraction(-3, 2), Fraction(-1, 3)),  # negative
        (Fraction(-7, 5), Fraction(2, 3)),  # mixed signs and denominators
        (Fraction(5, 7), Fraction(5, 7)),  # equal, and off every grid
        (Fraction(3, 4), Fraction(3, 4)),  # equal, on some grids
        (Fraction(1, 9), Fraction(1, 7)),  # no multiple of 1/8 inside: falls back to lo
        (Fraction(1, 17), Fraction(1, 16)),
        (0, 2),
        (Fraction(1, 8), 2),
    ]
    for _ in range(300):
        lo = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
        bounds.append((lo, lo + Fraction(rng.randint(0, 20), rng.randint(1, 30))))
    fallbacks = 0
    for k, (lo, hi) in enumerate(bounds):
        for seed in range(12):
            ours, theirs = random.Random(f"{k}-{seed}"), random.Random(f"{k}-{seed}")
            got, want = random_rat(ours, lo, hi), _reference_random_rat(theirs, lo, hi)
            assert got == want and type(got) is Fraction, (lo, hi, seed)
            assert ours.getstate() == theirs.getstate(), (lo, hi, seed)
            # a drawn value has a denominator dividing 24; lo itself may not
            fallbacks += 24 % got.denominator != 0
    assert fallbacks > 100


def test_au_sample_ball_builds_a_step_function_per_returned_sample(monkeypatch):
    built = []
    monkeypatch.setattr(
        generators, "StepFunction", lambda *args: built.append(args) or StepFunction(*args)
    )
    fs, _ = au_sample_ball(3, 6, R, seed=0)
    assert len(fs) == 6 and len(built) == 6
    built.clear()
    with pytest.raises(ValueError, match="enough distinct functions"):
        au_sample_ball(3, 2, Fraction(1, 20), seed=0)
    assert built == []


def test_au_sample_tripod_from_diverging_functions():
    f0 = StepFunction((), (), Fraction(0))
    f1 = StepFunction((Fraction(-1),), (1,), Fraction(0))
    f2 = StepFunction((Fraction(-1),), (2,), Fraction(0))
    m = [[au_distance(a, b) for b in (f0, f1, f2)] for a in (f0, f1, f2)]
    from rtrees import MetricMatrix

    tree = realize_tree(MetricMatrix(("f0", "f1", "f2"), tuple(tuple(r) for r in m)), "f0")
    # pairwise divergence at -1 gives an equilateral tripod of arm 1
    steiner = [n for n in tree.nodes() if not tree.labels_of(n)]
    assert len(steiner) == 1
    assert all(
        distance(tree, Vertex(node_of_label(tree, f"f{i}")), Vertex(steiner[0])) == 1
        for i in range(3)
    )


def _serialized_sha256(tree, points=None):
    text = treeio.serialize_tree(tree, R, points)
    return hashlib.sha256(text.encode()).hexdigest()


def _regression_cases():
    half = Fraction(1, 2)
    t = tripod(1, 1, 1)
    yield "rb_extend", rb_extend(t, 2, 2), None
    yield "degree_family_tree", degree_family_tree(GeneratorConfig(0, 2, 2, (3, 4))), None
    yield "random_tree", random_tree(7, max_nodes=8), None
    pts = [
        Vertex("p"), Vertex("a"), Vertex("b"), Vertex("y"), EdgePoint("p", "y", half),
        EdgePoint("y", "a", half), Vertex("a"), EdgePoint("y", "b", Fraction(1, 4)),
    ]
    yield "realize_tree", realize_tree(tree_to_matrix(t, pts)), None
    q = type_of(
        t, [Vertex("a")], [Vertex("b"), EdgePoint("y", "b", half), EdgePoint("p", "y", half)], R
    )
    glued, realized = realize_type(t, q)
    yield "realize_type", glued, {f"b{i + 1}": pt for i, pt in enumerate(realized)}
    base = TreeSkeleton("p", [("p", "y", 1), ("y", "a", 1), ("y", "b", 1)], labels={"y": "mid"})
    flag = TreeSkeleton("q", [("q", "z", half)], labels={"q": "anchor", "z": "tip"})
    spec = GlueSpec(
        base,
        ((segment(half), Vertex("p"), EdgePoint("y", "a", half)), (flag, Vertex("q"), Vertex("y"))),
    )
    yield "glue_family", glue_family(spec, R), None
    right = TreeSkeleton("p", [("p", "y", 1), ("y", "a", 1), ("y", "b", 1)], labels={"a": "far"})
    cut = EdgePoint("p", "y", half)
    amalgam, _g1, _g2 = amalgamate(t, right, SubtreeMap(t, right, ((cut, cut),)), R)
    yield "amalgamate", amalgam, None
    # recorded later than the cases above, before au_distance lost its
    # pointwise scan and the step-function sampler its re-canonicalization
    yield "au_sample_ball", au_sample_ball(4, 7, Fraction(5, 2), seed=3)[1], None


# sha256 of the serialized outputs, recorded before the cut-and-hang sites
# were routed through Materialization.graft; node ids are part of the text
REGRESSION_SHA256 = {
    "rb_extend": "47bcfc12e85492d787eca6db3a96c4b16a8b63f42fd48bb9ab6153061a41e80e",
    "degree_family_tree": "bf6c02c4081cdfb10e2230762abb8ffc251686bf8587e57ff9366eb557665665",
    "random_tree": "d3125832a824b0b2ac10f28a7c0cbce493856ceb969a13b460932f487e71fe4b",
    "realize_tree": "784e7e5ff402df9c17d0681008c68c52ad821615c0a2b586a50b73377cb6b037",
    "realize_type": "3324316099c8440b81cda9f6f29fcb73a2f9933406f49cbc2244c86954951efd",
    "glue_family": "9d9f916a2b77a6661e612b8676ef31e2a8f391a9fcfb02c12bc8458a4a012a70",
    "amalgamate": "fe00c07b3fe460f03fd1708db0a683cd121bbaba47014ddbff9b7b68a9ec3541",
    "au_sample_ball": "7cebb425605628f317f529dc17c503ec46b423f5bb6ef6ee38e945c30f597708",
}


def test_generated_node_ids_unchanged():
    got = {name: _serialized_sha256(tree, pts) for name, tree, pts in _regression_cases()}
    assert got == REGRESSION_SHA256
