import re
from fractions import Fraction

import pytest

from rtrees import (
    EdgePoint,
    FormulaSyntaxError,
    GeneratorConfig,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    check_rt_axioms,
    degree_family_tree,
    delta_hyperbolicity,
    distance,
    eval_qf,
    eval_quantified,
    free_vars,
    lipschitz_bound,
    parse_formula,
    point_on_edge,
    point_on_segment,
    random_point,
    random_tree,
    rb_extend,
    segment,
    tree_to_matrix,
    tripod,
)
from rtrees import formulas, skeleton
from rtrees.formulas import (
    MAX_DEPTH,
    AbsDiff,
    Add,
    CertifiedValue,
    Const,
    Dist,
    Inf,
    Max,
    Min,
    RtAxiomsReport,
    Scale,
    Sup,
    TruncSub,
    _resolve,
)
from rtrees.pl import PL, _pl
from rtrees.skeleton import _meet, normalize_point
from conftest import random_corpus, rng_for, tree_grid


P, Y, A, B = Vertex("p"), Vertex("y"), Vertex("a"), Vertex("b")


def test_parse_examples():
    f = parse_formula("d(x,p) -. 1/2")
    assert isinstance(f, TruncSub) and isinstance(f.left, Dist)
    assert free_vars(f) == {"x"}

    f = parse_formula("sup x. d(x,p)")
    assert isinstance(f, Sup) and free_vars(f) == frozenset()

    f = parse_formula("max(d(x,y), min(d(x,p), 3/2))")
    assert isinstance(f, Max) and isinstance(f.right, Min)
    assert free_vars(f) == {"x", "y"}


def test_parse_quantifier_nesting_and_scaling():
    f = parse_formula("inf z. max(abs(d(x,z) - 1/2 * d(x,y)), d(y,z))")
    assert isinstance(f, Inf)
    assert free_vars(f) == {"x", "y"}
    with pytest.raises(FormulaSyntaxError):
        parse_formula("inf x. inf x. d(x,p)")
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("d(x,")
    assert err.value.line == 1 and err.value.column >= 4
    with pytest.raises(FormulaSyntaxError):
        parse_formula("d(x,p) +")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("sup p. d(p,p)")


def _nested(depth):
    """One formula per nesting construct, each ``depth`` levels deep, with
    its value at x = a in the tripod (d(a, p) = 2) and the line and column
    of the token that takes it past ``MAX_DEPTH`` when depth is one more."""
    k = depth - 1
    return {
        "parens": ("(\n" * k + "d(x,p)" + ")" * k, 2, (MAX_DEPTH, 1)),
        "sum": (" + ".join(["d(x,p)"] * depth), 2 * depth, (1, 9 * MAX_DEPTH - 1)),
        "max": ("max(" * k + "d(x,p)" + ", 1)" * k, 2, (1, 4 * MAX_DEPTH - 3)),
        "scale": ("1 * " * k + "d(x,p)", 2, (1, 4 * MAX_DEPTH - 1)),
        "sup-sum": ("sup x. " + " + ".join(["d(x,p)"] * k), 2 * k, (1, 9 * MAX_DEPTH - 3)),
    }


@pytest.mark.parametrize("shape", sorted(_nested(MAX_DEPTH)))
def test_formula_at_the_depth_bound_evaluates(tripod, shape):
    text, value, _ = _nested(MAX_DEPTH)[shape]
    f = parse_formula(text)
    assert free_vars(f) <= {"x"}
    assert lipschitz_bound(f, "x") >= 0
    got = eval_quantified(tripod, f, {"x": A}, Fraction(1))
    assert got.exact and got.lower == value


@pytest.mark.parametrize("shape", sorted(_nested(MAX_DEPTH)))
def test_formula_past_the_depth_bound_is_a_syntax_error(shape):
    text, _, where = _nested(MAX_DEPTH + 1)[shape]
    with pytest.raises(FormulaSyntaxError, match=f"nested deeper than {MAX_DEPTH}") as err:
        parse_formula(text)
    assert (err.value.line, err.value.column) == where


def test_nested_quantifiers_at_the_depth_bound(tripod):
    # grid enumeration over x, an exact block over y, a sum of MAX_DEPTH - 2
    body = " + ".join(["d(x,y)"] * (MAX_DEPTH - 2))
    got = eval_quantified(tripod, parse_formula(f"sup x. inf y. {body}"), {}, Fraction(1))
    assert got.lower == 0


def test_eval_qf_examples(tripod):
    assert eval_qf(tripod, parse_formula("d(a,b)"), {"a": A, "b": B}) == 2
    assert eval_qf(tripod, parse_formula("d(x,x)"), {"x": A}) == 0
    assert eval_qf(tripod, parse_formula("d(a,p) -. 3"), {"a": A}) == 0
    got = eval_qf(
        tripod,
        parse_formula("1/2 * d(a,b) + max(d(a,p), 1) -. abs(d(a,p) - d(b,p))"),
        {"a": A, "b": B},
    )
    assert got == 3


def test_eval_qf_missing_point(tripod):
    with pytest.raises(KeyError):
        eval_qf(tripod, parse_formula("d(x,p)"), {})


def test_lipschitz_bounds():
    f = parse_formula("d(x,y) + d(x,p)")
    assert lipschitz_bound(f, "x") == 2
    assert lipschitz_bound(f, "y") == 1
    g = parse_formula("max(d(x,p), d(x,y)) -. 2 * d(y,p)")
    assert lipschitz_bound(g, "y") == 3
    assert lipschitz_bound(parse_formula("sup x. d(x,y)"), "x") == 0


def test_eval_qf_is_lipschitz(tripod):
    f = parse_formula("max(d(x,a), d(x,b)) -. d(x,p)")
    L = lipschitz_bound(f, "x")
    env = {"a": A, "b": B}
    pts = tree_grid(tripod, 4)
    for x1 in pts:
        for x2 in pts:
            v1 = eval_qf(tripod, f, {**env, "x": x1})
            v2 = eval_qf(tripod, f, {**env, "x": x2})
            assert abs(v1 - v2) <= L * distance(tripod, x1, x2)


def test_single_block_exact(tripod):
    cv = eval_quantified(tripod, parse_formula("sup x. d(x,p)"), {}, Fraction(1, 4))
    assert cv.exact and cv.lower == 2
    cv = eval_quantified(tripod, parse_formula("inf x. d(x,a)"), {"a": A}, Fraction(1, 4))
    assert cv.exact and cv.lower == 0
    # the optimum can sit strictly inside an edge: distance to two leaves
    cv = eval_quantified(
        tripod,
        parse_formula("inf x. max(d(x,a), d(x,b))"),
        {"a": A, "b": B},
        Fraction(1, 2),
    )
    assert cv.exact and cv.lower == 1
    # breakpoints created by the lattice connectives are found exactly
    cv = eval_quantified(
        tripod,
        parse_formula("inf x. abs(d(x,a) - d(x,p))"),
        {"a": A},
        Fraction(1, 2),
    )
    assert cv.exact and cv.lower == 0


def test_single_block_matches_grid_refinement(tripod):
    f = parse_formula("sup x. min(d(x,a), d(x,b)) -. 1/2 * d(x,p)")
    exact = eval_quantified(tripod, f, {"a": A, "b": B}, Fraction(1, 2))
    assert exact.exact
    # grid evaluation of the same body converges to the collapsed value
    body = f.body
    var = f.var
    for parts in (4, 8, 16):
        grid_best = max(
            eval_qf(tripod, body, {"a": A, "b": B, var: x})
            for x in tree_grid(tripod, parts)
        )
        assert grid_best <= exact.lower
        assert exact.lower - grid_best <= Fraction(3, 2) * Fraction(1, parts)


def test_nested_quantifiers_certified(tripod):
    # midpoint axiom body: nested sup/sup/inf evaluates with a certificate
    f = parse_formula(
        "sup x. sup y. inf z. max(abs(d(x,z) - 1/2 * d(x,y)), abs(d(y,z) - 1/2 * d(x,y)))"
    )
    cv = eval_quantified(tripod, f, {}, Fraction(1, 2))
    assert cv.lower <= 0 <= cv.upper
    assert cv.upper <= Fraction(3, 2)  # bounded by L * mesh accumulation


# two single blocks on the unit tripod: the farthest point from a is at 2,
# and y is the one point within 1 of both a and b
SUP_BLOCK, INF_BLOCK = "(sup x. d(x,a))", "(inf z. max(d(z,a), d(z,b)))"


@pytest.mark.parametrize(
    "text, value",
    [
        ("{s} + {i}", 3),
        ("{s} -. {i}", 1),
        ("{i} -. {s}", 0),
        ("max({i}, {s})", 2),
        ("min({s}, {i})", 1),
        ("abs({i} - {s})", 1),
        ("abs({s} - {i})", 1),
        ("3/2 * {s}", 3),
        ("-1/2 * {s}", -1),
        ("-2 * {i} + {s}", 0),
    ],
)
def test_single_blocks_under_a_connective_combine_exactly(tripod, text, value):
    val = {"a": A, "b": B}
    for block, want in ((SUP_BLOCK, 2), (INF_BLOCK, 1)):
        assert eval_quantified(tripod, parse_formula(block), val, Fraction(1, 2)).upper == want
    f = parse_formula(text.format(s=SUP_BLOCK, i=INF_BLOCK))
    got = eval_quantified(tripod, f, val, Fraction(1, 2))
    assert (got.lower, got.upper) == (value, value)


def test_nested_blocks_bracket_their_value_and_scale_as_intervals():
    seg = segment(2)
    mesh = Fraction(2, 3)  # the grid misses the midpoint, where the inf is attained
    radius = eval_quantified(seg, parse_formula("inf x. sup y. d(x,y)"), {}, mesh)
    assert radius.lower <= 1 <= radius.upper and radius.lower < radius.upper
    for coeff in (3, -1, Fraction(-1, 2)):
        f = parse_formula(f"{coeff} * (inf x. sup y. d(x,y))")
        got = eval_quantified(seg, f, {}, mesh)
        ends = sorted((coeff * radius.lower, coeff * radius.upper))
        assert (got.lower, got.upper) == tuple(ends)
    # a negative multiple swaps the ends
    got = eval_quantified(seg, parse_formula("-1 * (inf x. sup y. d(x,y))"), {}, mesh)
    assert (got.lower, got.upper) == (-radius.upper, -radius.lower)
    hull = eval_quantified(seg, parse_formula("sup x. inf y. max(d(x,y), d(y,p))"), {}, mesh)
    assert hull.lower <= 1 <= hull.upper


def test_eval_quantified_refuses_a_mesh_at_most_zero_and_a_missing_point(tripod):
    f = parse_formula("sup x. d(x,q)")
    for mesh in (0, -1):
        with pytest.raises(ValueError, match="^mesh must be positive$"):
            eval_quantified(tripod, f, {"q": A}, mesh)
    with pytest.raises(KeyError, match=re.escape("valuation missing points: ['q']")):
        eval_quantified(tripod, f, {}, Fraction(1, 2))


def test_hyperbolicity_axiom_interval(tripod):
    gp = "1/2 * (d(x,w) + d(z,w) -. d(x,z))"
    f = parse_formula(
        f"sup x. sup y. sup z. sup w. min({gp}, 1/2 * (d(y,w) + d(z,w) -. d(y,z)))"
        " -. 1/2 * (d(x,w) + d(y,w) -. d(x,y))"
    )
    cv = eval_quantified(tripod, f, {}, Fraction(1))
    assert cv.lower <= 0 <= cv.upper


def test_check_rt_axioms(tripod, lone_point):
    rep = check_rt_axioms(tripod, 2, Fraction(1, 2))
    assert rep.ok
    assert rep.axiom1.lower == 2 and rep.axiom1.exact
    assert rep.axiom2.lower == 0 and rep.axiom3.lower == 0
    assert rep.summary() == "axiom1=2<=2 axiom2=0 axiom3=0"

    rep = check_rt_axioms(tripod, Fraction(3, 2), Fraction(1, 2))
    assert not rep.axiom1_ok and rep.axiom1.lower == 2

    rep = check_rt_axioms(lone_point, 1, Fraction(1, 2))
    assert rep.ok and rep.axiom1.lower == 0

    with pytest.raises(ValueError, match="mesh must be positive"):
        check_rt_axioms(tripod, 2, 0)


def _reference_axioms(tree, r, mesh):
    """``check_rt_axioms`` as it stood on ``Fraction``s: axiom 1 from one
    distance per node, axiom 2 from one ``vertex_distance``, one
    ``point_on_segment`` and two ``distance`` calls per vertex pair."""
    r, mesh = Fraction(r), Fraction(mesh)
    sup_d = max(tree.dist_to_basepoint(n) for n in tree.nodes())
    defect = Fraction(0)
    nodes = tree.nodes()
    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            half = tree.vertex_distance(x, y) / 2
            z = point_on_segment(tree, Vertex(x), Vertex(y), half)
            gap = max(
                abs(distance(tree, Vertex(x), z) - half),
                abs(distance(tree, Vertex(y), z) - half),
            )
            defect = max(defect, gap)
    delta = delta_hyperbolicity(tree_to_matrix(tree, skeleton.grid_points(tree, mesh)))
    return RtAxiomsReport(
        CertifiedValue(sup_d, sup_d, mesh),
        CertifiedValue(defect, defect, mesh),
        CertifiedValue(delta, delta, mesh),
        r,
    )


def test_check_rt_axioms_matches_the_fraction_loop():
    trees = [(t, 2, Fraction(1, 2)) for t in random_corpus("ax2", 40, max_nodes=9)]
    trees += [(t, Fraction(3, 2), 1) for t in random_corpus("ax2-small", 10, radius=Fraction(5, 7))]
    trees += [(rb_extend(tripod(1, 1, 1), 2, k), 2, 2) for k in range(6)]
    trees += [
        (degree_family_tree(GeneratorConfig(0, depth, 2, degrees)), 2, 1)
        for depth, degrees in ((0, (3,)), (1, (3, 4)), (2, (4,)), (2, (3, 5)), (3, (3,)))
    ]
    trees += [(segment(Fraction(7, 3)), 2, 1), (TreeSkeleton("p", (), extra_nodes=["p"]), 1, 1)]
    for tree, r, mesh in trees:
        assert check_rt_axioms(tree, r, mesh) == _reference_axioms(tree, r, mesh)


def test_axiom2_measures_the_midpoint_it_placed(monkeypatch):
    """The midpoint's distances come from the vertices' distance rows, not
    from the walk that placed it: a midpoint placed from ``y`` as if the
    root arcs of ``x`` and ``y`` parted at the basepoint lies at half of
    ``d(x, y)`` from ``y`` but off the arc [x, y], and the defect shows it.
    For the pair (a, c) it lands halfway up p-c, 9/2 from a for a half of
    3/2."""
    tree = TreeSkeleton("p", [("p", "c", 2), ("c", "a", 3), ("c", "b", 1)])
    assert check_rt_axioms(tree, 5, 1).axiom2.upper == 0
    place = formulas._midpoint
    monkeypatch.setattr(
        formulas, "_midpoint", lambda parent, h, x, y, half, m: place(parent, h, y, x, half, 0)
    )
    assert check_rt_axioms(tree, 5, 1).axiom2.upper == 3


def test_check_rt_axioms_on_a_disconnected_skeleton():
    tree = TreeSkeleton("p", [("p", "a", 1), ("b", "c", 1)])
    with pytest.raises(SkeletonError, match="^node 'b' not connected to the basepoint$"):
        check_rt_axioms(tree, 2, 1)


def test_axiom3_zero_on_random_trees():
    for tree in random_corpus("ax3", 4, max_nodes=5):
        rep = check_rt_axioms(tree, 2, Fraction(1, 2))
        assert rep.axiom3.lower == 0 and rep.axiom3.exact


def test_single_block_on_a_disconnected_skeleton_is_a_skeleton_error():
    tree = TreeSkeleton("p", [("p", "a", 1), ("b", "c", 1)])
    cases = [("sup x. d(x,p)", {}), ("sup x. d(x,q)", {"q": A}), ("sup x. d(x,q)", {"q": B})]
    for text, val in cases:
        with pytest.raises(SkeletonError, match="^distance query across disconnected components$"):
            eval_quantified(tree, parse_formula(text), val, Fraction(1, 2))


def test_single_block_makes_no_meet_per_edge(monkeypatch):
    # one distance table per named point: the only root-arc meet is the one
    # ``distance`` makes for the leaf without the bound variable
    calls = []

    def counting(*args):
        calls.append(args)
        return _meet(*args)

    monkeypatch.setattr(skeleton, "_meet", counting)
    tree = rb_extend(tripod(1, 1, 1), 2, 4)
    assert len(tree.edges()) > 50
    f = parse_formula("sup x. max(d(x,a), d(a,b)) + d(x,p) -. d(b,x)")
    got = eval_quantified(tree, f, {"a": Vertex("a"), "b": Vertex("b")}, Fraction(1, 4))
    assert got.exact
    assert len(calls) == 1


# -- the per-edge evaluation that the distance tables replaced, as a reference --


def _ref_distance_profile(tree, edge, q):
    u, v = edge
    length = tree.edge_length(u, v)
    parent = tree._root_data()[0]
    low = v if parent.get(v) == u else u
    q = normalize_point(tree, q)
    _, h, _, hq, m, den = _meet(tree, Vertex(low), q)
    ln = length.numerator * (den // length.denominator)
    if isinstance(q, EdgePoint) and (q.u, q.v) == (u, v):
        at = q.offset.numerator * (den // q.offset.denominator)
        return _pl(den, (0, at, ln), (at, 0, ln - at))
    d_low = h + hq - 2 * m
    d_high = d_low + ln if m == h else d_low - ln
    if low == u:
        return _pl(den, (0, ln), (d_low, d_high))
    return _pl(den, (0, ln), (d_high, d_low))


def _ref_profile(tree, f, val, var, edge):
    length = tree.edge_length(*edge)
    if isinstance(f, Const):
        return PL.const(Fraction(0), length, f.value)
    if isinstance(f, Dist):
        if f.a == var and f.b == var:
            return PL.const(Fraction(0), length, Fraction(0))
        if f.a == var:
            return _ref_distance_profile(tree, edge, _resolve(tree, f.b, val))
        if f.b == var:
            return _ref_distance_profile(tree, edge, _resolve(tree, f.a, val))
        c = distance(tree, _resolve(tree, f.a, val), _resolve(tree, f.b, val))
        return PL.const(Fraction(0), length, c)
    if isinstance(f, Scale):
        return _ref_profile(tree, f.body, val, var, edge).scale(f.coeff)
    left = _ref_profile(tree, f.left, val, var, edge)
    right = _ref_profile(tree, f.right, val, var, edge)
    if isinstance(f, Add):
        return left.add(right)
    if isinstance(f, Max):
        return left.max_with(right)
    if isinstance(f, Min):
        return left.min_with(right)
    diff = left.sub(right)
    if isinstance(f, TruncSub):
        return diff.max_with(PL.const(Fraction(0), length, Fraction(0)))
    return abs(diff)


def _ref_single_block(tree, f, val):
    body, var = f.body, f.var
    pick, extremum = (min, PL.argmin) if isinstance(f, Inf) else (max, PL.argmax)
    cands = [extremum(_ref_profile(tree, body, val, var, (u, v)))[0] for u, v, _ in tree.edges()]
    cands += [
        eval_qf(tree, body, {**val, var: Vertex(node)})
        for node in tree.nodes()
        if tree.degree(node) == 0 or not tree.edges()
    ]
    return pick(cands)


# every connective, a negative scale, d(x,x) and a leaf without x
FIXED_BODIES = [
    "d(x,p)",
    "max(d(x,a), d(x,b))",
    "d(x,x) + 2 * d(a,b) -. d(x,a)",
    "-3/2 * abs(d(x,a) - d(x,p)) + 1",
    "min(d(b,x), 1/3) -. d(b,a)",
    "abs(d(a,x) - d(x,b)) + -1/2 * min(d(x,p), d(p,a))",
]
LEAF_NAMES = ("x", "x", "a", "b", "p")


def _random_body(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.2:
            return Const(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))
        return Dist(rng.choice(LEAF_NAMES), rng.choice(LEAF_NAMES))
    kind = rng.choice((Add, TruncSub, Max, Min, AbsDiff, Scale))
    if kind is Scale:
        return Scale(Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3))), _random_body(rng, depth - 1))
    return kind(_random_body(rng, depth - 1), _random_body(rng, depth - 1))


def _reference_trees():
    rng = rng_for("single-block-reference")
    trees = [TreeSkeleton("p", (), extra_nodes=["p"])]
    trees += [random_tree(rng, max_nodes=n, min_nodes=1) for n in range(2, 13) for _ in range(3)]
    seeds = [tripod(1, 1, 1), segment(2), random_tree(rng, max_nodes=5)]
    trees += [rb_extend(seed, 2, k) for seed in seeds for k in (2, 3, 4)]
    return trees


def _parameters(rng, tree):
    """A vertex, the basepoint or a point inside an edge, each in turn."""
    u, v, length = rng.choice(tree.edges() or ((None, None, None),))
    choices = [Vertex(rng.choice(tree.nodes())), Vertex(tree.basepoint)]
    if u is not None:
        choices.append(point_on_edge(tree, u, v, length * Fraction(rng.randint(1, 6), 7)))
    return rng.choice(choices)


def test_single_block_matches_the_per_edge_reference():
    rng = rng_for("single-block-bodies")
    checked = 0
    for tree in _reference_trees():
        bodies = [parse_formula(t) for t in FIXED_BODIES]
        bodies += [_random_body(rng, 3) for _ in range(12)]
        for body in bodies:
            val = {"a": _parameters(rng, tree), "b": _parameters(rng, tree)}
            for quant in (Inf, Sup):
                f = quant("x", body)
                want = _ref_single_block(tree, f, val)
                got = eval_quantified(tree, f, val, Fraction(1, 4))
                assert got.exact and got.lower == want, (tree, f, val)
                checked += 1
    assert checked > 1500


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_PROPERTY_TREES = [TreeSkeleton("p", (), extra_nodes=["p"])] + random_corpus(
    "single-block-property", 12, max_nodes=9
) + [rb_extend(tripod(1, 1, 1), 2, 2)]

_leaves = st.one_of(
    st.builds(Dist, st.sampled_from(LEAF_NAMES), st.sampled_from(LEAF_NAMES)),
    st.builds(Const, st.fractions(-3, 3, max_denominator=4)),
)
_bodies = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(Scale, st.fractions(-3, 3, max_denominator=4), kids),
        *(st.builds(kind, kids, kids) for kind in (Add, TruncSub, Max, Min, AbsDiff)),
    ),
    max_leaves=8,
)


@st.composite
def _instances(draw):
    tree = draw(st.sampled_from(_PROPERTY_TREES))
    rng = rng_for(draw(st.integers(0, 10**6)))
    points = [random_point(rng, tree) for _ in range(2)]
    return tree, {"a": points[0], "b": points[1]}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_bodies, st.sampled_from((Inf, Sup)), _instances())
def test_single_block_property_matches_the_reference(body, quant, instance):
    tree, val = instance
    f = quant("x", body)
    got = eval_quantified(tree, f, val, Fraction(1, 2))
    assert got.exact and got.lower == _ref_single_block(tree, f, val)
