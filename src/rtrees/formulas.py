"""Continuous-logic formulas over trees: parsing and exact evaluation.

The connective set is rational constants, ``+``, truncated subtraction
``-.``, ``max``, ``min``, ``abs(e1 - e2)``, scalar multiples and the
quantifiers ``inf v. e`` / ``sup v. e``.  Atoms are distances ``d(t1, t2)``
between the basepoint ``p``, bound variables and named parameter points.

Quantifier-free formulas are piecewise linear along every edge, so a single
quantifier block is evaluated exactly by piecewise-linear analysis.  Nested
quantifiers fall back to exhaustive grid enumeration with a certified
Lipschitz error interval.

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


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Const):
        return frozenset()
    if isinstance(f, Dist):
        return frozenset(n for n in (f.a, f.b) if n != "p")
    if isinstance(f, (Add, TruncSub, Max, Min, AbsDiff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Scale):
        return free_vars(f.body)
    if isinstance(f, (Inf, Sup)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (Const, Dist)):
        return True
    if isinstance(f, (Add, TruncSub, Max, Min, AbsDiff)):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    if isinstance(f, Scale):
        return is_quantifier_free(f.body)
    return False


def lipschitz_bound(f: Formula, var: str) -> Fraction:
    """Syntactic bound ``L`` on how fast the value moves when ``var`` moves:
    ``|f(x) - f(y)| <= L d(x, y)`` in the tree metric, the other points
    fixed.  The exact single block relies on it to skip edges."""
    if isinstance(f, Const):
        return Fraction(0)
    if isinstance(f, Dist):
        return Fraction(1) if (f.a == var) != (f.b == var) else Fraction(0)
    if isinstance(f, (Add, TruncSub, AbsDiff)):
        return lipschitz_bound(f.left, var) + lipschitz_bound(f.right, var)
    if isinstance(f, (Max, Min)):
        return max(lipschitz_bound(f.left, var), lipschitz_bound(f.right, var))
    if isinstance(f, Scale):
        return abs(f.coeff) * lipschitz_bound(f.body, var)
    if isinstance(f, (Inf, Sup)):
        return Fraction(0) if f.var == var else lipschitz_bound(f.body, var)
    raise TypeError(f"not a formula: {f!r}")


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
# The parser takes three frames per level and every recursive evaluator one,
# so all of them stay far inside the default recursion limit.
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


def eval_qf(tree: TreeSkeleton, f: Formula, val: Valuation) -> Fraction:
    """Exact value of a quantifier-free formula under a total valuation."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Dist):
        return distance(tree, _resolve(tree, f.a, val), _resolve(tree, f.b, val))
    if isinstance(f, Add):
        return eval_qf(tree, f.left, val) + eval_qf(tree, f.right, val)
    if isinstance(f, TruncSub):
        d = eval_qf(tree, f.left, val) - eval_qf(tree, f.right, val)
        return d if d > 0 else Fraction(0)
    if isinstance(f, Scale):
        return f.coeff * eval_qf(tree, f.body, val)
    if isinstance(f, Max):
        return max(eval_qf(tree, f.left, val), eval_qf(tree, f.right, val))
    if isinstance(f, Min):
        return min(eval_qf(tree, f.left, val), eval_qf(tree, f.right, val))
    if isinstance(f, AbsDiff):
        return abs(eval_qf(tree, f.left, val) - eval_qf(tree, f.right, val))
    raise ValueError("formula is not quantifier-free")


# -- piecewise-linear profiles along one edge ----------------------------------


_ZERO = Fraction(0)


def _dists(f: Formula):
    """The ``(a, b)`` names of every ``Dist`` leaf of a quantifier-free ``f``."""
    if isinstance(f, Dist):
        yield f.a, f.b
    elif isinstance(f, Scale):
        yield from _dists(f.body)
    elif isinstance(f, (Add, TruncSub, Max, Min, AbsDiff)):
        yield from _dists(f.left)
        yield from _dists(f.right)


def _profile(f: Formula, leaves, edge: tuple[str, str, Fraction]) -> PL:
    """``f`` along ``edge = (u, v, length)`` as its bound point sweeps from
    ``u``; each ``Dist`` leaf is read from ``leaves``, keyed by its names: a
    constant, or the :func:`distance_table` of its other point."""
    if isinstance(f, Dist):
        leaf = leaves[f.a, f.b]
        if isinstance(leaf, Fraction):
            return PL.const(_ZERO, edge[2], leaf)
        return table_profile(leaf, edge[0], edge[1])
    if isinstance(f, Const):
        return PL.const(_ZERO, edge[2], f.value)
    if isinstance(f, Scale):
        return _profile(f.body, leaves, edge).scale(f.coeff)
    if isinstance(f, (Add, TruncSub, Max, Min, AbsDiff)):
        left = _profile(f.left, leaves, edge)
        right = _profile(f.right, leaves, edge)
        if isinstance(f, Add):
            return left.add(right)
        if isinstance(f, Max):
            return left.max_with(right)
        if isinstance(f, Min):
            return left.min_with(right)
        diff = left.sub(right)
        if isinstance(f, TruncSub):
            return diff.max_with(PL.const(_ZERO, edge[2], _ZERO))
        return abs(diff)
    raise ValueError("profile requires a quantifier-free body")


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


def _den(f: Formula, leaves) -> int:
    """A denominator over which ``f`` is an integer at every node: the lcm
    of its leaves' and constants' denominators, each ``Scale``'s times its
    body's, so that every scaled value divides exactly."""
    if isinstance(f, Dist):
        leaf = leaves[f.a, f.b]
        return leaf.denominator if isinstance(leaf, Fraction) else leaf[1]
    if isinstance(f, Const):
        return f.value.denominator
    if isinstance(f, Scale):
        return f.coeff.denominator * _den(f.body, leaves)
    return lcm(_den(f.left, leaves), _den(f.right, leaves))


def _values(f: Formula, leaves, nodes, D: int) -> list[int]:
    """``f`` with its bound point at each of ``nodes``, as numerators over
    ``D``, a multiple of :func:`_den`; one list of ints per connective."""
    if isinstance(f, Dist):
        leaf = leaves[f.a, f.b]
        if isinstance(leaf, Fraction):
            return [leaf.numerator * (D // leaf.denominator)] * len(nodes)
        dist, den, _ = leaf
        k = D // den
        return [dist[n] * k for n in nodes]
    if isinstance(f, Const):
        return [f.value.numerator * (D // f.value.denominator)] * len(nodes)
    if isinstance(f, Scale):
        p, q = f.coeff.numerator, f.coeff.denominator
        return [p * y // q for y in _values(f.body, leaves, nodes, D)]
    left = _values(f.left, leaves, nodes, D)
    right = _values(f.right, leaves, nodes, D)
    if isinstance(f, Add):
        return [a + b for a, b in zip(left, right)]
    if isinstance(f, TruncSub):
        return [a - b if a > b else 0 for a, b in zip(left, right)]
    if isinstance(f, Max):
        return [a if a > b else b for a, b in zip(left, right)]
    if isinstance(f, Min):
        return [a if a < b else b for a, b in zip(left, right)]
    return [abs(a - b) for a, b in zip(left, right)]


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
    for a, b in _dists(body):
        if (a, b) in leaves:
            continue
        if a == var and b == var:
            leaves[a, b] = _ZERO
        elif var in (a, b):
            q = b if a == var else a
            if q not in tables:
                tables[q] = distance_table(tree, _resolve(tree, q, val))
            leaves[a, b] = tables[q]
        else:
            leaves[a, b] = distance(tree, _resolve(tree, a, val), _resolve(tree, b, val))
    _, num, _, den = tree._root_data()
    if len(num) != len(tree.nodes()):
        raise SkeletonError("distance query across disconnected components")
    D = lcm(den, _den(body, leaves))
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


def eval_quantified(
    tree: TreeSkeleton, f: Formula, val: Valuation, mesh
) -> CertifiedValue:
    """Certified evaluation; collapses to an exact value whenever the
    outermost quantifier block closes a quantifier-free body."""
    mesh = as_rat(mesh)
    if mesh <= 0:
        raise ValueError("mesh must be positive")

    def rec(g: Formula, v: Valuation) -> tuple[Fraction, Fraction]:
        if is_quantifier_free(g):
            x = eval_qf(tree, g, v)
            return x, x
        if isinstance(g, (Inf, Sup)) and is_quantifier_free(g.body):
            x = _exact_single_block(tree, g, v)
            return x, x
        if isinstance(g, (Inf, Sup)):
            anchors = tuple(v.values())
            pts = grid_points(tree, mesh, anchors)
            lows = []
            highs = []
            for pt in pts:
                lo, hi = rec(g.body, {**v, g.var: pt})
                lows.append(lo)
                highs.append(hi)
            L = lipschitz_bound(g.body, g.var)
            if isinstance(g, Inf):
                return min(lows) - L * mesh, min(highs)
            return max(lows), max(highs) + L * mesh
        # quantifiers strictly inside connectives: combine sub-intervals
        if isinstance(g, (Add, TruncSub, Max, Min, AbsDiff)):
            llo, lhi = rec(g.left, v)
            rlo, rhi = rec(g.right, v)
            if isinstance(g, Add):
                return llo + rlo, lhi + rhi
            if isinstance(g, TruncSub):
                return max(llo - rhi, Fraction(0)), max(lhi - rlo, Fraction(0))
            if isinstance(g, Max):
                return max(llo, rlo), max(lhi, rhi)
            if isinstance(g, Min):
                return min(llo, rlo), min(lhi, rhi)
            lo = max(llo - rhi, rlo - lhi, Fraction(0))
            hi = max(lhi - rlo, rhi - llo)
            return min(lo, hi), max(lo, hi)
        if isinstance(g, Scale):
            lo, hi = rec(g.body, v)
            if g.coeff >= 0:
                return g.coeff * lo, g.coeff * hi
            return g.coeff * hi, g.coeff * lo
        raise TypeError(f"not a formula: {g!r}")

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
