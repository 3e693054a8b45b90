"""Continuous-logic formulas over trees: parsing and exact evaluation.

The connective set is rational constants, ``+``, truncated subtraction
``-.``, ``max``, ``min``, ``abs(e1 - e2)``, scalar multiples and the
quantifiers ``inf v. e`` / ``sup v. e``.  Atoms are distances ``d(t1, t2)``
between the basepoint ``p``, bound variables and named parameter points.

Quantifier-free formulas are piecewise linear along every edge, so a single
quantifier block is evaluated exactly by piecewise-linear analysis.  Nested
quantifiers fall back to exhaustive grid enumeration with a certified
Lipschitz error interval.

Every walk of the formula tree is one fold, ``_fold``: ``leaf(g)`` at a
``Const`` or ``Dist``, ``ops[type(g)](left, right)`` at a binary connective,
``ops[Scale](coeff, body)`` at a scalar multiple and ``quant(g)`` at a
quantifier, which folds the body itself.  Each domain is one table ``ops``:
exact values, node ints, edge profiles, grid intervals, the Lipschitz bound,
denominators, free variables and quantifier-freeness.

A single block is a branch and bound over the edges.  It first evaluates its
body at every node in one pass over the formula, one list of ints per
connective, all over one denominator ``D``: the lcm of the skeleton's
heights', the distance tables' and the constants' denominators and of each
``Scale``'s times its body's, so that every scaled value divides exactly.
The best node value is the starting optimum.  The body is ``L``-Lipschitz in
the bound point (:func:`lipschitz_bound`), so on an edge ``u-v`` of length
``l`` a sup is at most ``(f(u) + f(v) + L l) / 2`` and an inf at least
``(f(u) + f(v) - L l) / 2``.  Only the edges whose cap beats the optimum so
far strictly get a piecewise-linear profile; an edge whose cap ties it can
at best attain it, which leaves the value unchanged.

A single block reads its distances from one integer table per named point
(:func:`rtrees.pl.distance_table`), made by one pass down the basepoint's
parent map.  The height at which the root arcs of ``q`` and a node ``n``
part is ``min(h_n, h_q)`` when ``n`` lies on ``q``'s root arc; off that arc
it is the same as for ``n``'s parent, because ``n``'s root arc runs through
its parent and leaves ``q``'s arc where the parent's does.  Each edge's leaf
is then a line between two table entries, or a V on ``q``'s own edge, and a
leaf without the bound variable is one ``distance`` per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, and_, mul, or_
from typing import Mapping, Union

from .rationals import as_rat, format_rat
from .skeleton import (
    PointRef,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    _climb,
    distance,
    grid_points,
)
from .matrices import delta_hyperbolicity, tree_to_matrix
from .pl import PL, distance_table, table_profile


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


# -- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Dist:
    a: str
    b: str


@dataclass(frozen=True)
class Add:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class TruncSub:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Scale:
    coeff: Fraction
    body: "Formula"


@dataclass(frozen=True)
class Max:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Min:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class AbsDiff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Inf:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Sup:
    var: str
    body: "Formula"


Formula = Union[Const, Dist, Add, TruncSub, Scale, Max, Min, AbsDiff, Inf, Sup]

Valuation = Mapping[str, PointRef]

_ZERO = Fraction(0)


def _fold(f: Formula, leaf, ops, quant):
    """``f`` folded bottom-up as the module docstring says, dispatching on the
    node's own class: anything else, a subclass too, is not a formula."""
    kind = type(f)
    if kind is Const or kind is Dist:
        return leaf(f)
    if kind in (Add, TruncSub, Max, Min, AbsDiff):
        left = _fold(f.left, leaf, ops, quant)
        return ops[kind](left, _fold(f.right, leaf, ops, quant))
    if kind is Scale:
        return ops[Scale](f.coeff, _fold(f.body, leaf, ops, quant))
    if kind is Inf or kind is Sup:
        return quant(f)
    raise TypeError(f"not a formula: {f!r}")


def _table(binary, scale=lambda _coeff, x: x) -> dict:
    """The table whose five binary connectives all apply ``binary``."""
    return dict.fromkeys((Add, TruncSub, Max, Min, AbsDiff), binary) | {Scale: scale}


# the denominator over which a body is an integer at every node (module docstring)
_DEN = _table(lcm, lambda c, den: c.denominator * den)
_LIPSCHITZ = _table(add, lambda c, x: abs(c) * x) | {Max: max, Min: max}
_NAMES, _BOTH = _table(or_), _table(and_)


def _not_qf(_g):
    raise ValueError("formula is not quantifier-free")


def free_vars(f: Formula) -> frozenset[str]:
    def leaf(g) -> frozenset[str]:
        return frozenset() if isinstance(g, Const) else frozenset((g.a, g.b)) - {"p"}

    return _fold(f, leaf, _NAMES, lambda g: free_vars(g.body) - {g.var})


def is_quantifier_free(f: Formula) -> bool:
    return _fold(f, lambda _g: True, _BOTH, lambda _g: False)


def lipschitz_bound(f: Formula, var: str) -> Fraction:
    """Syntactic bound ``L`` on how fast the value moves when ``var`` moves:
    ``|f(x) - f(y)| <= L d(x, y)`` in the tree metric, the other points
    fixed.  The exact single block relies on it to skip edges."""

    def leaf(g) -> Fraction:
        moves = isinstance(g, Dist) and (g.a == var) != (g.b == var)
        return Fraction(1) if moves else _ZERO

    def quant(g) -> Fraction:
        return _ZERO if g.var == var else lipschitz_bound(g.body, var)

    return _fold(f, leaf, _LIPSCHITZ, quant)


# -- parser -------------------------------------------------------------------


_SYMBOLS = ("-.", "(", ")", ",", ".", "+", "*", "/", "-")
_KEYWORDS = {"inf", "sup", "max", "min", "abs", "d"}


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        matched = None
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched:
            tokens.append((matched, matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


# The deepest syntax tree the parser accepts.  A parenthesis, a call, a
# quantifier, a scalar multiple and each operator of a sum count one level.
# The parser takes three frames per level; the fold one per connective and
# three per quantifier (the fold, its ``quant`` and the function that folds the
# body, ``rec`` on the grid path), all far inside the default recursion limit.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each ``parse_*`` returns a subtree and its height."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.bound: list[str] = []
        self.depth = 0  # levels open around the current token

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise FormulaSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3]
            )
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise FormulaSyntaxError(message, tok[2], tok[3])

    def check_depth(self, height: int, tok) -> int:
        """``height``, once a subtree that high under the open levels is
        known to fit the bound; else the error is at ``tok``."""
        if self.depth + height > MAX_DEPTH:
            raise FormulaSyntaxError(
                f"formula nested deeper than {MAX_DEPTH} levels", tok[2], tok[3]
            )
        return height

    def enter(self, tok) -> None:
        """Open a level at ``tok``; the caller closes it with ``depth -= 1``."""
        self.depth += 1
        self.check_depth(1, tok)

    # expr := quantifier | sum
    def parse_expr(self) -> tuple[Formula, int]:
        kind, value, _line, _col = self.peek()
        if kind == "NAME" and value in ("inf", "sup"):
            self.enter(self.next())
            var_tok = self.expect("NAME")
            var = var_tok[1]
            if var in _KEYWORDS or var == "p":
                raise FormulaSyntaxError(
                    f"{var!r} cannot be a variable", var_tok[2], var_tok[3]
                )
            if var in self.bound:
                raise FormulaSyntaxError(
                    f"variable {var!r} bound twice", var_tok[2], var_tok[3]
                )
            self.expect(".")
            self.bound.append(var)
            body, height = self.parse_expr()
            self.bound.pop()
            self.depth -= 1
            return (Inf(var, body) if value == "inf" else Sup(var, body)), height + 1
        return self.parse_sum()

    # sum := operand { ("+" | "-.") operand }
    def parse_sum(self) -> tuple[Formula, int]:
        left, height = self.parse_operand()
        while self.peek()[0] in ("+", "-."):
            tok = self.next()
            self.enter(tok)
            right, right_height = self.parse_operand()
            self.depth -= 1
            height = self.check_depth(max(height, right_height) + 1, tok)
            left = Add(left, right) if tok[0] == "+" else TruncSub(left, right)
        return left, height

    def parse_rational(self) -> Fraction:
        neg = False
        if self.peek()[0] == "-":
            self.next()
            neg = True
        tok = self.expect("INT")
        num = int(tok[1])
        den = 1
        if self.peek()[0] == "/":
            self.next()
            den_tok = self.expect("INT")
            den = int(den_tok[1])
            if den == 0:
                raise FormulaSyntaxError("zero denominator", den_tok[2], den_tok[3])
        q = Fraction(num, den)
        return -q if neg else q

    def parse_operand(self) -> tuple[Formula, int]:
        kind, value, _line, _col = self.peek()
        if kind in ("INT", "-"):
            q = self.parse_rational()
            if self.peek()[0] == "*":
                self.enter(self.next())
                body, height = self.parse_operand()
                self.depth -= 1
                return Scale(q, body), height + 1
            return Const(q), 1
        if kind == "(":
            self.enter(self.next())
            inner, height = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return inner, height + 1
        if kind == "NAME":
            if value == "d":
                self.next()
                self.expect("(")
                a = self.parse_point()
                self.expect(",")
                b = self.parse_point()
                self.expect(")")
                return Dist(a, b), 1
            if value in ("max", "min", "abs"):
                self.enter(self.next())
                self.expect("(")
                left, left_height = self.parse_expr()
                self.expect("-" if value == "abs" else ",")
                right, right_height = self.parse_expr()
                self.expect(")")
                self.depth -= 1
                node = AbsDiff if value == "abs" else Max if value == "max" else Min
                return node(left, right), max(left_height, right_height) + 1
            if value in ("inf", "sup"):
                return self.parse_expr()
        self.fail(f"unexpected token {value!r}")

    def parse_point(self) -> str:
        tok = self.expect("NAME")
        name = tok[1]
        if name in _KEYWORDS:
            raise FormulaSyntaxError(
                f"{name!r} is a keyword, not a point", tok[2], tok[3]
            )
        return name


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    formula, _ = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2], tok[3])
    return formula


# -- quantifier-free evaluation ------------------------------------------------


def _resolve(tree: TreeSkeleton, name: str, val: Valuation) -> PointRef:
    if name == "p":
        return Vertex(tree.basepoint)
    try:
        return val[name]
    except KeyError:
        raise KeyError(f"valuation missing point {name!r}") from None


def _atom(tree: TreeSkeleton, g: Union[Const, Dist], val: Valuation) -> Fraction:
    if isinstance(g, Const):
        return g.value
    return distance(tree, _resolve(tree, g.a, val), _resolve(tree, g.b, val))


_EXACT = {
    Add: add, Max: max, Min: min, Scale: mul,
    TruncSub: lambda a, b: a - b if a > b else _ZERO,
    AbsDiff: lambda a, b: abs(a - b),
}


def eval_qf(tree: TreeSkeleton, f: Formula, val: Valuation) -> Fraction:
    """Exact value of a quantifier-free formula under a total valuation."""
    return _fold(f, lambda g: _atom(tree, g, val), _EXACT, _not_qf)


# -- piecewise-linear profiles along one edge ----------------------------------


_PROFILE = {
    Add: PL.add, Max: PL.max_with, Min: PL.min_with,
    TruncSub: lambda a, b: a.max_with(b).sub(b),  # a -. b = max(a, b) - b
    AbsDiff: lambda a, b: abs(a.sub(b)),
    Scale: lambda c, pl: pl.scale(c),
}


def _profile(f: Formula, leaves, edge: tuple[str, str, Fraction]) -> PL:
    """``f`` along ``edge = (u, v, length)`` as its bound point sweeps from
    ``u``; each ``Dist`` leaf is read from ``leaves``, keyed by its names: a
    constant, or the :func:`distance_table` of its other point."""
    u, v, length = edge

    def leaf(g) -> PL:
        x = g.value if isinstance(g, Const) else leaves[g.a, g.b]
        if isinstance(x, tuple):
            return table_profile(x, u, v)
        return PL.const(_ZERO, length, x)

    return _fold(f, leaf, _PROFILE, _not_qf)


# -- certified quantified evaluation ---------------------------------------------


@dataclass(frozen=True)
class CertifiedValue:
    """Interval guaranteed to contain the true value; exact when collapsed.

    ``truncated`` is set when a search budget cut the computation short;
    the interval is still certified, but wider than the exhaustive one.
    """

    lower: Fraction
    upper: Fraction
    mesh: Fraction
    truncated: bool = False

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def __str__(self) -> str:
        if self.exact:
            return format_rat(self.lower)
        return f"[{format_rat(self.lower)}, {format_rat(self.upper)}]"


def _scale_ints(c: Fraction, ys: list[int]) -> list[int]:
    p, q = c.numerator, c.denominator
    return [p * y // q for y in ys]


_NODE_INTS = {
    Add: lambda a, b: [x + y for x, y in zip(a, b)],
    TruncSub: lambda a, b: [x - y if x > y else 0 for x, y in zip(a, b)],
    Max: lambda a, b: [x if x > y else y for x, y in zip(a, b)],
    Min: lambda a, b: [x if x < y else y for x, y in zip(a, b)],
    AbsDiff: lambda a, b: [abs(x - y) for x, y in zip(a, b)],
    Scale: _scale_ints,
}


def _values(f: Formula, leaves, nodes, D: int) -> list[int]:
    """``f`` with its bound point at each of ``nodes``, as numerators over
    ``D``, a multiple of its denominator; one list of ints per connective."""

    def leaf(g) -> list[int]:
        x = g.value if isinstance(g, Const) else leaves[g.a, g.b]
        if isinstance(x, tuple):
            dist, k = x[0], D // x[1]
            return [dist[n] * k for n in nodes]
        return [x.numerator * (D // x.denominator)] * len(nodes)

    return _fold(f, leaf, _NODE_INTS, _not_qf)


def _exact_single_block(
    tree: TreeSkeleton, f: Union[Inf, Sup], val: Valuation
) -> Fraction:
    """Exact optimum of a quantifier over a quantifier-free body: the best
    node value, all nodes evaluated over one denominator ``D``, then a
    :func:`_profile` on each edge ``u-v`` whose Lipschitz cap ``(f(u) + f(v)
    +- L l) / 2`` beats the optimum so far strictly; a tie can at best attain
    it.  Each named point gets one distance table and each constant leaf one
    ``distance``.  Whatever the body reads, a skeleton with a node off the
    basepoint's component, a cycle or an edge of length at most 0 is refused
    with the :class:`SkeletonError` a distance query gives."""
    body, var = f.body, f.var
    leaves: dict[tuple[str, str], object] = {}
    tables: dict[str, tuple] = {}

    def leaf_den(g) -> int:
        """The leaf's denominator; a ``Dist`` is read into ``leaves`` once."""
        if isinstance(g, Const):
            return g.value.denominator
        a, b = g.a, g.b
        leaf = leaves.get((a, b))
        if leaf is None:
            if a == var and b == var:
                leaf = _ZERO
            elif var in (a, b):
                q = b if a == var else a
                leaf = tables.get(q) or distance_table(tree, _resolve(tree, q, val))
                tables[q] = leaf
            else:
                leaf = distance(tree, _resolve(tree, a, val), _resolve(tree, b, val))
            leaves[a, b] = leaf
        return leaf[1] if isinstance(leaf, tuple) else leaf.denominator

    body_den = _fold(body, leaf_den, _DEN, _not_qf)
    _, num, _, den = tree._root_data()
    if len(num) != len(tree.nodes()):
        raise SkeletonError("distance query across disconnected components")
    D = lcm(den, body_den)
    at = dict(zip(num, _values(body, leaves, num, D)))
    pick, sign = (min, -1) if isinstance(f, Inf) else (max, 1)
    bn, bd = pick(at.values()), D
    L = lipschitz_bound(body, var)
    lq, ll = L.denominator, L.numerator * (D // den)
    # each edge's cap over 2 lq D, times sign so that more is better; those
    # that beat the best node are then checked against the best so far
    caps = [
        (sign * lq * (at[u] + at[v]) + ll * abs(num[u] - num[v]), (u, v, w))
        for u, v, w in tree.edges()
    ]
    for cap, e in [c for c in caps if c[0] > sign * 2 * lq * bn]:
        if cap * bd > sign * 2 * lq * D * bn:
            pl = _profile(body, leaves, e)
            n = pick(pl.yn)
            if sign * (n * bd - bn * pl.d) > 0:
                bn, bd = n, pl.d
    return Fraction(bn, bd)


def _interval_abs_diff(a, b) -> tuple[Fraction, Fraction]:
    lo, hi = max(a[0] - b[1], b[0] - a[1], _ZERO), max(a[1] - b[0], b[1] - a[0])
    return min(lo, hi), max(lo, hi)


# the grid path's rules: each connective on intervals that contain its operands
_INTERVALS = {
    Add: lambda a, b: (a[0] + b[0], a[1] + b[1]),
    TruncSub: lambda a, b: (max(a[0] - b[1], _ZERO), max(a[1] - b[0], _ZERO)),
    Max: lambda a, b: (max(a[0], b[0]), max(a[1], b[1])),
    Min: lambda a, b: (min(a[0], b[0]), min(a[1], b[1])),
    AbsDiff: _interval_abs_diff,
    Scale: lambda c, a: (c * a[0], c * a[1]) if c >= 0 else (c * a[1], c * a[0]),
}


def eval_quantified(
    tree: TreeSkeleton, f: Formula, val: Valuation, mesh
) -> CertifiedValue:
    """Certified evaluation; collapses to an exact value whenever the
    outermost quantifier block closes a quantifier-free body."""
    mesh = as_rat(mesh)
    if mesh <= 0:
        raise ValueError("mesh must be positive")

    def rec(g: Formula, v: Valuation) -> tuple[Fraction, Fraction]:
        def quant(q) -> tuple[Fraction, Fraction]:
            if is_quantifier_free(q.body):
                return (_exact_single_block(tree, q, v),) * 2
            bounds = []
            for pt in grid_points(tree, mesh, tuple(v.values())):
                bounds.append(rec(q.body, {**v, q.var: pt}))
            lows, highs = zip(*bounds)
            L = lipschitz_bound(q.body, q.var)
            if isinstance(q, Inf):
                return min(lows) - L * mesh, min(highs)
            return max(lows), max(highs) + L * mesh

        return _fold(g, lambda x: (_atom(tree, x, v),) * 2, _INTERVALS, quant)

    missing = free_vars(f) - set(val)
    if missing:
        raise KeyError(f"valuation missing points: {sorted(missing)}")
    lo, hi = rec(f, dict(val))
    return CertifiedValue(lo, hi, mesh)


# -- the three tree axioms ---------------------------------------------------------


@dataclass(frozen=True)
class RtAxiomsReport:
    """Exact values for the radius bound, midpoint and 0-hyperbolicity axioms."""

    axiom1: CertifiedValue
    axiom2: CertifiedValue
    axiom3: CertifiedValue
    radius: Fraction

    @property
    def axiom1_ok(self) -> bool:
        return self.axiom1.upper <= self.radius

    @property
    def ok(self) -> bool:
        return self.axiom1_ok and self.axiom2.upper == 0 and self.axiom3.upper == 0

    def summary(self) -> str:
        return (
            f"axiom1={format_rat(self.axiom1.upper)}"
            f"{'<=' if self.axiom1_ok else '>'}{format_rat(self.radius)} "
            f"axiom2={self.axiom2} axiom3={self.axiom3}"
        )


def check_rt_axioms(tree: TreeSkeleton, r, mesh) -> RtAxiomsReport:
    """Evaluate the three axioms exactly on a structurally valid skeleton.

    Axiom 1 (radius): the sup of d(x, p) is attained at a vertex.  Axiom 2
    (midpoints): for every vertex pair a midpoint is placed on the arc
    [x, y], and its distances to x and y are measured from one integer
    distance row per vertex; the defect is the largest gap to half of
    d(x, y), 0 on every tree.  Axiom 3 (0-hyperbolicity): the Gromov
    four-point defect over vertices and grid points, which is 0 on every
    tree.
    """
    r = as_rat(r)
    mesh = as_rat(mesh)
    parent, num, _, den = tree._spanning_data()
    nodes = tree.nodes()
    sup_d = Fraction(max(num.values()), den)
    ax1 = CertifiedValue(sup_d, sup_d, mesh)

    # heights over 2 * den, so that half of every vertex distance is an integer
    h = {x: 2 * n for x, n in num.items()}
    rows = [distance_table(tree, Vertex(x))[0] for x in nodes]
    defect = 0
    for i, x in enumerate(nodes):
        rx = rows[i]
        for y, ry in zip(nodes[i + 1:], rows[i + 1:]):
            half = rx[y]  # d(x, y) over den is its half over 2 * den
            # the root arcs part at (h_x + h_y - d(x, y)) / 2
            u, v, t = _midpoint(parent, h, x, y, half, num[x] + num[y] - half)
            if v is None:
                dx, dy = 2 * rx[u], 2 * ry[u]
            else:  # on the edge u-v, at |uz| below u and |vz| above v
                uz, vz = h[u] - t, t - h[v]
                dx = min(2 * rx[u] + uz, 2 * rx[v] + vz)
                dy = min(2 * ry[u] + uz, 2 * ry[v] + vz)
            gap = max(abs(dx - half), abs(dy - half))
            if gap > defect:
                defect = gap
    defect = Fraction(defect, 2 * den)
    ax2 = CertifiedValue(defect, defect, mesh)

    pts = grid_points(tree, mesh)
    delta = delta_hyperbolicity(tree_to_matrix(tree, pts))
    ax3 = CertifiedValue(delta, delta, mesh)
    return RtAxiomsReport(axiom1=ax1, axiom2=ax2, axiom3=ax3, radius=r)


def _midpoint(parent, h, x: str, y: str, half: int, m: int):
    """The point at distance ``half`` from ``x`` on the arc [x, y], given the
    height ``m`` at which the root arcs of ``x`` and ``y`` part, all over the
    scale of the heights ``h``: ``(u, None, h[u])`` at a vertex ``u``, or
    ``(u, parent[u], t)`` at height ``t`` inside the edge above ``u``."""
    hx = h[x]
    if half <= hx - m:
        node, t = x, hx - half
    else:
        node, t = y, 2 * m - hx + half
    node, up = _climb(parent, h, node, t)
    return node, up, t
