from fractions import Fraction

import pytest

from rtrees import (
    FormulaSyntaxError,
    Vertex,
    check_rt_axioms,
    distance,
    eval_qf,
    eval_quantified,
    free_vars,
    lipschitz_bound,
    parse_formula,
)
from rtrees.formulas import MAX_DEPTH, Dist, Inf, Max, Min, Sup, TruncSub
from conftest import random_corpus, tree_grid


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


def test_axiom3_zero_on_random_trees():
    for tree in random_corpus("ax3", 4, max_nodes=5):
        rep = check_rt_axioms(tree, 2, Fraction(1, 2))
        assert rep.axiom3.lower == 0 and rep.axiom3.exact
