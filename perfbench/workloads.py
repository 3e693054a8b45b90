"""The three workloads.  :func:`build` is a workload's set-up: it generates
every input from the seed and returns one round, a list of :class:`Task`
in seeded order, which run.py repeats.

A round's composition (task kinds and input sizes) is fixed; only the
seeded contents differ.  That keeps a round's cost, and so the run's
figures, nearly the same from one seed to the next.
"""

from __future__ import annotations

import functools
import os
import random
from fractions import Fraction

from common import (
    RADIUS as R,
    Task,
    cli_call,
    first_four_point_witness,
    grid_count,
    matrix_text,
    point_spec,
    rat,
    same_witness,
    tree_from_text,
    tree_size,
    tree_text,
)

NESTED = "sup x. inf y. max(d(x,y), d(y,p))"  # = height / 2 on any tree
SUP_HEIGHT = "sup x. d(x,p)"  # = height
MIDPOINT = "inf x. max(d(x,a), d(x,b))"  # = d(a,b) / 2


class RoundGen:
    """Shared state of one set-up: the API, the seeded generator, the
    directory for CLI input files and the task list being filled."""

    def __init__(self, api, rng: random.Random, workdir: str, tiny: bool):
        self.api = api
        self.rt = api.rt  # untraced: for checks only
        self.f = api.fn
        self.rng = rng
        self.workdir = workdir
        self.tiny = tiny
        self.tasks: list[Task] = []
        self._files = 0

    def add(self, kind, size, run, check, **kw) -> str:
        key = f"{len(self.tasks)}.{kind}"
        self.tasks.append(Task(key, kind, size, run, check, **kw))
        return key

    def write(self, text: str, suffix: str) -> str:
        self._files += 1
        path = os.path.join(self.workdir, f"{self._files}{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    # -- inputs ------------------------------------------------------------------

    def point(self, tree):
        return self.f("random_point")(self.rng, tree)

    def random_tree(self, lo: int, hi: int, radius=R):
        """A seeded random tree with between lo and hi nodes."""
        gen = self.f("random_tree")
        while True:
            tree = gen(self.rng, max_nodes=hi, min_nodes=lo, radius=radius)
            if lo <= len(tree.nodes()) <= hi:
                return tree

    def tree_with_grid(self, lo: int, hi: int, mesh, max_nodes: int):
        """A seeded random tree whose grid at ``mesh`` has lo..hi points."""
        gen = self.f("random_tree")
        while True:
            tree = gen(self.rng, max_nodes=max_nodes, radius=R)
            if lo <= grid_count(tree, mesh) <= hi:
                return tree

    def interior(self, tree, edges=None):
        """A point strictly inside a seeded edge (of ``edges`` if given)."""
        u, v, length = self.rng.choice(edges or tree.edges())
        return self.f("point_on_edge")(tree, u, v, length * Fraction(self.rng.randint(1, 3), 4))

    def stratified_interior(self, tree, count: int):
        """``count`` interior points, one from each of ``count`` groups of
        edges ordered by depth: psi_at's cost depends on where the point
        sits, and a plain random choice made the median task's cost move
        with the seed."""
        edges = sorted(tree.edges(), key=lambda e: (tree.dist_to_basepoint(e[0]) + tree.dist_to_basepoint(e[1]), e))
        return [self.interior(tree, edges[k * len(edges) // count:(k + 1) * len(edges) // count]) for k in range(count)]

    def vertex(self, tree):
        return self.api.Vertex(self.rng.choice(tree.nodes()))

    # -- task families shared by the workloads -----------------------------------

    def distance_batch(self, tree, triples: int, deep: bool):
        """distance, median and gromov_product on random triples; checked by
        the branch identity d(a,b)+d(b,c) = d(a,c) + 2 dist(b,[a,c])."""
        variant = "deep" if deep else "shallow"
        dist = self.f("distance", variant)
        med = self.f("median")
        gp = self.f("gromov_product")
        pts = [tuple(self.point(tree) for _ in range(3)) for _ in range(triples)]

        def run():
            return [
                (dist(tree, a, b), dist(tree, b, c), dist(tree, a, c), med(tree, a, c, b), gp(tree, a, c, b))
                for a, b, c in pts
            ]

        def check(out, _outs):
            for (a, b, c), (dab, dbc, dac, m, g) in zip(pts, out):
                seg = self.rt.distance(tree, b, m)
                if dab + dbc != dac + 2 * seg or seg != g:
                    return False
            return len(out) == len(pts)

        self.add("distance_batch." + variant, tree_size(tree, triples=triples), run, check)

    def span_project(self, tree, gens: int, probes: int):
        span = self.f("spanned_subtree")
        proj = self.f("project_to_subtree")
        generators = [self.point(tree) for _ in range(gens)]
        pts = [self.point(tree) for _ in range(probes)]

        def run():
            sub = span(tree, generators)
            return sub, [proj(tree, sub, x) for x in pts]

        def check(out, _outs):
            sub, projections = out
            rt = self.rt
            if not all(sub.covers(g) for g in generators):
                return False
            for x, (e, s) in zip(pts, projections):
                if not sub.covers(e) or rt.distance(tree, x, e) != s:
                    return False
                # e is the nearest covered point: every generator is reached through it
                if any(rt.distance(tree, x, g) != s + rt.distance(tree, e, g) for g in generators):
                    return False
            return True

        self.add("span_project", tree_size(tree, generators=gens, probes=probes), run, check)

    def independence(self, tree):
        indep = self.f("is_star_independent")
        q = self.api.IndependenceQuery(
            tree, (self.point(tree),), (self.point(tree),), (self.point(tree),)
        )

        def check(out, _outs):
            # symmetry of the relation (criterion 9)
            flipped = self.rt.IndependenceQuery(tree, q.B, q.A, q.C)
            return out.independent == self.rt.is_star_independent(flipped).independent

        self.add("is_star_independent", tree_size(tree), lambda: indep(q), check)

    def type_of(self, tree, params: int, n: int):
        type_of = self.f("type_of")
        A = [self.point(tree) for _ in range(params)]
        b = [self.point(tree) for _ in range(n)]

        def check(q, _outs):
            rt = self.rt
            if rt.validate_descriptor(q) is not True:
                return False
            return all(
                rt.distance(tree, x, e) == s for x, e, s in zip(b, q.closest, q.offsets)
            ) and all(q.pairwise[i][j] == rt.distance(tree, b[i], b[j]) for i in range(n) for j in range(n))

        self.add("type_of", tree_size(tree, n=n, params=params), lambda: type_of(tree, A, b, R), check)

    def realize_type(self, tree, params: int, n: int):
        type_of = self.f("type_of")
        realize = self.f("realize_type")
        A = [self.point(tree) for _ in range(params)]
        q = type_of(tree, A, [self.point(tree) for _ in range(n)], R)

        def check(out, _outs):
            # realize_type . type_of round trip (criterion 8)
            rt = self.rt
            ext, realized = out
            back = rt.type_of(ext, [rt.transfer_point(ext, a) for a in A], realized, R)
            return rt.types_equal_transferred(q, back)

        def canon(out):
            ext, realized = out
            base = self.rt.Vertex(ext.basepoint)
            return ext, [self.rt.distance(ext, base, x) for x in realized]

        self.add("realize_type", tree_size(tree, n=n), lambda: realize(tree, q), check, extra={"canon": canon})

    def additive(self, n: int, kind="realize_tree"):
        """tree_to_matrix then realize_tree, checked by the round trip."""
        tree = self.random_tree(max(2, n // 2), n + 4)
        pts = [self.point(tree) for _ in range(n)]
        names = tuple(f"x{i}" for i in range(n))
        to_matrix = self.f("tree_to_matrix")
        bucket = "n8" if n < 12 else "n16" if n < 20 else "n24"
        realize = self.f("realize_tree", bucket)

        def run():
            m = to_matrix(tree, pts, labels=names)
            return m, realize(m, "x0")

        def check(out, _outs):
            rt = self.rt
            m, realized = out
            if m.entries != rt.tree_to_matrix(tree, pts, labels=names).entries:
                return False
            nodes = [realized.find_label(s) for s in names]
            if None in nodes:
                return False
            back = rt.tree_to_matrix(realized, [rt.Vertex(x) for x in nodes], labels=names)
            return back.entries == m.entries

        self.add(kind, {"n": n, **tree_size(tree)}, run, check)

    def perturbed(self, n: int):
        """A tree metric with one entry raised past the smallest triangle
        slack, so the four-point condition is certain to fail.  Returns the
        matrix and a function giving the reference witness."""
        tree = self.random_tree(max(2, n // 2), n + 4)
        pts = [self.point(tree) for _ in range(n)]
        base = self.f("tree_to_matrix")(tree, pts, labels=tuple(f"x{i}" for i in range(n)))
        e = [list(row) for row in base.entries]
        i, j = sorted(self.rng.sample(range(n), 2))
        slack = min(e[i][k] + e[k][j] - e[i][j] for k in range(n) if k not in (i, j))
        e[i][j] = e[j][i] = e[i][j] + slack + Fraction(self.rng.randint(1, 4), 4)
        m = self.api.MetricMatrix(base.labels, tuple(tuple(row) for row in e))
        return m, functools.cache(lambda: first_four_point_witness(m.entries, (i, j)))

    def cli(self, kind, argv, expect, size):
        """A CLI call; ``expect(outs)`` gives the exact (exit, stdout, stderr),
        computed at check time."""
        main = self.f("main")
        self.add("cli." + kind, size, lambda: cli_call(main, argv), lambda out, outs: out == expect(outs))

    def probes(self):
        """Light calls into every layer, so that every per-layer metric is
        measured on every workload."""
        f, rt = self.f, self.rt
        shallow = self.random_tree(6, 12)
        deep = f("rb_extend")(f("tripod")(1, 1, 1), R, 3)
        self.distance_batch(shallow, 10, deep=False)
        self.distance_batch(deep, 10, deep=True)
        self.span_project(shallow, 3, 4)
        self.independence(shallow)
        self.type_of(shallow, 1, 2)
        self.realize_type(shallow, 1, 1)
        self.additive(6, kind="probe.realize_tree")

        mat_pts = [self.point(shallow) for _ in range(3)]
        materialize = f("materialize")

        def check_mat(mat, _outs):
            b = rt.Vertex(shallow.basepoint)
            return all(
                mat.tree.dist_to_basepoint(mat.node_for(rt.normalize_point(shallow, x)))
                == rt.distance(shallow, b, x)
                for x in mat_pts
            )

        self.add("materialize", tree_size(shallow, points=3), lambda: materialize(shallow, mat_pts), check_mat)

        gen_cfg = self.api.GeneratorConfig(seed=self.rng.randrange(1000), depth=1, radius=R, degree_set=(3,))
        degree_tree = f("degree_family_tree")(gen_cfg)
        _fs, au_tree = f("au_sample_ball")(3, 4, R, self.rng.randrange(1000))
        validate = f("validate")
        self.add(
            "validate",
            tree_size(degree_tree),
            lambda: (validate(degree_tree, R), validate(au_tree, R)),
            lambda out, _o: out[0].ok and out[1].ok,
        )

        m, ref = self.perturbed(5)
        fpc = f("four_point_check")
        realize_rej = f("realize_tree", "rejected")
        delta = f("delta_hyperbolicity")

        def run():
            try:
                realize_rej(m, "x0")
            except self.api.FourPointViolation as exc:
                return fpc(m), exc.witness, delta(m)
            return None

        self.add(
            "probe.four_point",
            {"n": 5},
            run,
            lambda out, _o: same_witness(out[0], ref(), m.labels)
            and same_witness(out[1], ref(), m.labels)
            and out[2] >= (ref()[1] - ref()[2]) / 2 > 0,
        )

        small = self.tree_with_grid(6, 9, R / 4, 5)
        self._check_rt(small, R / 4)

        trip = f("tripod")(1, 1, 1)
        nested = f("parse_formula")(NESTED)
        grid_eval = f("eval_quantified", "grid")
        self.add(
            "eval_quantified.grid",
            tree_size(trip, grid_points=grid_count(trip, R / 4)),
            lambda: grid_eval(trip, nested, {}, R / 4),
            lambda cv, _o: cv.lower <= Fraction(1) <= cv.upper,
        )
        self._oracle(trip, rt.Vertex("p"), R / 8)

        base = self._labeled(f("segment")(1))
        self._amalgam(base)
        self._type_distance(17, 8, R / 8)
        self._type_distance(12, 12, R / 8)

        self._rb(f("segment")(2), "probe")
        self._psi(trip, rt.Vertex("y"), "vertex")
        self._psi(trip, self.interior(trip), "interior")
        self._exact(trip, SUP_HEIGHT, {})

    # -- single tasks ---------------------------------------------------------------

    def _check_rt(self, tree, mesh):
        check_rt = self.f("check_rt_axioms")

        def check(rep, _outs):
            top = max(tree.dist_to_basepoint(n) for n in tree.nodes())
            return rep.ok and rep.axiom1.upper == top and rep.axiom2.upper == 0 and rep.axiom3.upper == 0

        self.add(
            "check_rt_axioms",
            tree_size(tree, grid_points=grid_count(tree, mesh)),
            lambda: check_rt(tree, R, mesh),
            check,
        )

    def _oracle(self, tree, x, mesh):
        oracle = self.f("psi_grid_oracle")

        def check(val, _outs):
            # psi_at <= oracle <= psi_at + 2 mesh (criterion 11b)
            exact = self.rt.psi_at(tree, x, R)
            return exact <= val <= exact + 2 * mesh

        self.add(
            "psi_grid_oracle",
            tree_size(tree, grid_points=grid_count(tree, mesh)),
            lambda: oracle(tree, x, R, mesh),
            check,
        )

    def _rb(self, tree, variant, k=None):
        rb = self.f("rb_deficiency", variant)
        return self.add(
            "rb_deficiency." + variant,
            tree_size(tree, k=k),
            lambda: rb(tree, R),
            lambda val, outs: self._rb_check(tree, val, outs),
        )

    def _rb_check(self, tree, val, outs):
        """The sup is at least every psi_at probe taken on the same tree."""
        probes = [outs[t.key] for t in self.tasks if t.extra.get("tree") is tree]
        return val >= 0 and all(isinstance(p, Fraction) and p <= val for p in probes)

    def _psi(self, tree, x, variant):
        psi = self.f("psi_at", variant)
        self.add(
            "psi_at." + variant,
            tree_size(tree),
            lambda: psi(tree, x, R),
            lambda val, _o: val >= 0,
            extra={"tree": tree},
        )

    def _exact(self, tree, text, val):
        formula = self.f("parse_formula")(text)
        ev = self.f("eval_quantified", "exact")

        def check(cv, _outs):
            rt = self.rt
            if text == SUP_HEIGHT:
                want = max(tree.dist_to_basepoint(n) for n in tree.nodes())
            else:
                want = rt.distance(tree, val["a"], val["b"]) / 2
            return cv.lower == cv.upper == want

        self.add("eval_quantified.exact", tree_size(tree), lambda: ev(tree, formula, val, R / 8), check)

    def _labeled(self, tree):
        return self.api.TreeSkeleton(
            tree.basepoint, tree.edges(), labels={n: n for n in tree.nodes()}, extra_nodes=tree.nodes()
        )

    def _amalgam(self, base):
        """Two one-arm extensions of ``base`` glued, then amalgamated over it
        (criterion 5)."""
        api, f = self.api, self.f
        glue, amalgamate = f("glue_family"), f("amalgamate")
        specs = []
        for _side in range(2):
            at = self.point(base)
            budget = R - self.rt.distance(base, api.Vertex(base.basepoint), at)
            arm = f("segment")(budget * Fraction(self.rng.randint(1, 3), 4), basepoint="u0", tip="w")
            specs.append(api.GlueSpec(base=base, attachments=((arm, api.Vertex("u0"), at),)))
        pairs = tuple((api.Vertex(n), api.Vertex(n)) for n in base.nodes())

        def run():
            m1, m2 = glue(specs[0], R), glue(specs[1], R)
            shared = api.SubtreeMap(source=m1, target=m2, pairs=pairs)
            return (m1, m2) + tuple(amalgamate(m1, m2, shared, R))

        def check(out, _outs):
            rt = self.rt
            m1, m2, amalgam, g1, g2 = out
            for tree, g in ((m1, g1), (m2, g2)):
                mapping = dict(g.pairs)
                nodes = tree.nodes()
                for i, u in enumerate(nodes):
                    for v in nodes[i + 1:]:
                        d = rt.distance(amalgam, mapping[rt.Vertex(u)], mapping[rt.Vertex(v)])
                        if d != tree.vertex_distance(u, v):
                            return False
            return True

        self.add("glue_amalgamate", tree_size(base), run, check, extra={"canon": lambda out: out[:3]})

    def _type_distance(self, num_s, num_t, mesh):
        """Criterion 7's family: the distance is exactly 2 max(s, t) for
        s != t."""
        api = self.api
        dot = api.TreeSkeleton("p", (), extra_nodes=["p"])
        ctx = self.f("spanned_subtree")(dot, [])
        s, t = Fraction(num_s, 64) * R, Fraction(num_t, 64) * R

        def family(arm):
            return api.NTypeDescriptor(
                context=ctx,
                radius=R,
                closest=(api.Vertex("p"), api.Vertex("p")),
                offsets=(2 * arm, 2 * arm),
                pairwise=((Fraction(0), 2 * arm), (2 * arm, Fraction(0))),
            )

        q1, q2 = family(s), family(t)
        tds = self.f("type_distance_search")
        self.add(
            "type_distance_search",
            {"n": 2, "grid_points": int(R / mesh), "s": rat(s), "t": rat(t)},
            lambda: tds(q1, q2, mesh),
            # equal types are at distance exactly 0, and the search says so
            lambda cv, _o: cv.lower == cv.upper == 0 if s == t else cv.lower <= 2 * max(s, t) <= cv.upper,
        )


# -- workloads ---------------------------------------------------------------------


def deficiency_round(b: RoundGen):
    f, rt = b.f, b.rt
    seeds = [("tripod", f("tripod")(1, 1, 1)), ("segment", f("segment")(2)), ("random", _random_seed(b))]
    depths = (1, 2) if b.tiny else (2, 3, 4)
    # psi_at at a vertex reads cached reach tables and costs ~0.05 ms, an
    # exact evaluation 1-3 ms, psi_at at an interior point 1-10 ms.  Twelve
    # interior probes to two of each of the others put the median task well
    # inside the interior probes rather than on the edge between two
    # groups, where it jumped with the seed.
    exts, rb_keys = {}, {}
    for name, seed_tree in seeds:
        for k in depths:
            ext = exts[name, k] = f("rb_extend")(seed_tree, R, k)
            rb_keys[name, k] = b._rb(ext, f"k{k}", k)
            for _ in range(1 if b.tiny else 2):
                b._psi(ext, b.vertex(ext), "vertex")
            for x in b.stratified_interior(ext, 1 if b.tiny else 12):
                b._psi(ext, x, "interior")
            b._exact(ext, SUP_HEIGHT, {})
            b._exact(ext, MIDPOINT, {"a": b.point(ext), "b": b.point(ext)})

    # rtree psi --at on the extensions, and the sup on the random seed's
    # shallowest extension, compared with the rb_deficiency task's value.
    for name, seed_tree in seeds:
        ext = exts[name, depths[1]]
        x = b.interior(ext)
        path = b.write(tree_text(ext, R), ".tree")
        b.cli(
            "psi_at",
            ["psi", "--tree", path, "--at", point_spec(x)],
            lambda _outs, ext=ext, x=x: (0, rat(rt.psi_at(ext, x, R)) + "\n", ""),
            tree_size(ext),
        )
    ext = exts["random", depths[0]]
    path = b.write(tree_text(ext, R), ".tree")
    b.cli(
        "psi_sup",
        ["psi", "--tree", path],
        lambda outs, key=rb_keys["random", depths[0]]: (0, rat(outs[key]) + "\n", ""),
        tree_size(ext, k=depths[0]),
    )
    b.probes()


def _random_seed(b: RoundGen):
    """A random_tree(max_nodes=5) whose depth-4 extension has 50-60 nodes,
    as the tripod's has 55: the extension's size sets rb_deficiency's cost,
    and unconstrained it ranges from 20 to over 100 nodes."""
    while True:
        tree = b.random_tree(2, 5)
        if b.tiny or 50 <= len(b.f("rb_extend")(tree, R, 4).nodes()) <= 60:
            return tree


def realize_round(b: RoundGen):
    f, api = b.f, b.api
    sizes = [6, 8, 10] if b.tiny else [8] * 16 + [10] * 4 + [12, 12, 16, 24]
    for n in sizes:
        b.additive(n)

    fpc = f("four_point_check")
    realize_rej = f("realize_tree", "rejected")
    delta = f("delta_hyperbolicity")
    for i, n in enumerate([6, 8] if b.tiny else [8] * 16 + [10] * 16 + [12] * 8):
        m, ref = b.perturbed(n)
        if i % 2:
            b.add(
                "four_point_check",
                {"n": n},
                lambda m=m: fpc(m),
                lambda w, _o, m=m, ref=ref: same_witness(w, ref(), m.labels),
            )
        else:

            def run(m=m):
                try:
                    realize_rej(m, "x0")
                except api.FourPointViolation as exc:
                    return exc
                return None

            b.add(
                "realize_tree.rejected",
                {"n": n},
                run,
                lambda exc, _o, m=m, ref=ref: exc is not None and same_witness(exc.witness, ref(), m.labels),
            )
        if i % 10 == 0:
            b.add(
                "delta_hyperbolicity",
                {"n": n},
                lambda m=m: delta(m),
                lambda d, _o, ref=ref: d >= (ref()[1] - ref()[2]) / 2 > 0,
            )

    for lo, hi in ([(6, 9)] if b.tiny else [(18, 22), (18, 22)]):
        b._check_rt(b.tree_with_grid(lo, hi, R / 4, 9), R / 4)

    repeat = 1 if b.tiny else 8
    for _ in range(repeat):
        for n in (1, 2, 3):
            b.realize_type(b.random_tree(3, 7), b.rng.randint(0, 2), n)
        b._amalgam(b._labeled(b.random_tree(2, 5, radius=Fraction(1))))
        _au_sample_ball(b, 4 if b.tiny else 6)
        _degree_family(b)

    # criterion 7 at mesh r/64, one pair per cost stratum (cost grows with t)
    for t_lo, t_hi in ([(8, 9)] if b.tiny else [(8, 11), (12, 15), (16, 19)]):
        num_t = b.rng.randint(t_lo, t_hi)
        b._type_distance(b.rng.randint(max(17, num_t + 1), 32), num_t, R / (16 if b.tiny else 64))

    for i in range(repeat):
        if i % 2 == 0:
            _cli_realize(b, 6 if b.tiny else 10)
        _cli_generate(b, 1 if b.tiny else 2)
    b.probes()


def _au_sample_ball(b: RoundGen, count: int):
    rt, au = b.rt, b.f("au_sample_ball")
    seed = b.rng.randrange(10**6)

    def check(out, _outs):
        fs, tree = out
        names = [f"f{i}" for i in range(count)]
        pts = [rt.Vertex(tree.find_label(s)) for s in names]
        m = rt.tree_to_matrix(tree, pts, labels=names)
        return all(m.entries[i][j] == rt.au_distance(fs[i], fs[j]) for i in range(count) for j in range(count))

    b.add("au_sample_ball", {"n": count}, lambda: au(3, count, R, seed), check, extra={"canon": lambda out: out[1]})


def _degree_family(b: RoundGen):
    rt, dft, validate = b.rt, b.f("degree_family_tree"), b.f("validate")
    degrees = b.rng.choice([(3,), (3, 4), (4, 5), (3, 5)])
    cfg = b.api.GeneratorConfig(seed=b.rng.randrange(1000), depth=2, radius=R, degree_set=degrees)

    def run():
        tree = dft(cfg)
        return tree, validate(tree, R)

    def check(out, _outs):
        tree, report = out
        return report.ok and set(rt.branch_degree_multiset(tree)) == set(degrees)

    b.add("degree_family_tree", {"depth": 2}, run, check)


def _cli_realize(b: RoundGen, n: int):
    """rtree realize on an additive matrix, and on a perturbed one (exit 1
    with the four-point witness on stderr)."""
    rt, main = b.rt, b.f("main")
    tree = b.random_tree(n // 2, n + 4)
    m = b.f("tree_to_matrix")(tree, [b.point(tree) for _ in range(n)], labels=tuple(f"x{i}" for i in range(n)))
    path = b.write(matrix_text(m), ".mat")
    b.add(
        "cli.realize",
        {"n": n},
        lambda: cli_call(main, ["realize", "--matrix", path, "--basepoint", "x0"]),
        lambda out, _o: _realized_text_ok(rt, out, m),
    )
    bad, ref = b.perturbed(n)
    bad_path = b.write(matrix_text(bad), ".mat")

    def rejected_text(_outs):
        quad, lhs, rhs = ref()
        labels = ",".join(bad.labels[k] for k in quad)
        return 1, "", f"violation=four_point quad={labels} lhs={rat(lhs)} rhs={rat(rhs)}\n"

    b.cli("realize_rejected", ["realize", "--matrix", bad_path, "--basepoint", "x0"], rejected_text, {"n": n})


def _cli_generate(b: RoundGen, depth: int):
    """rtree generate rb and degrees, compared with the generators' trees."""
    rt, main = b.rt, b.f("main")
    b.add(
        "cli.generate_rb",
        {"depth": depth},
        lambda: cli_call(main, ["generate", "rb", "--radius", "2", "--depth", str(depth)]),
        lambda out, _o: out[0] == 0 and out[2] == "" and _same_tree(rt, out[1], rt.rb_extend(rt.tripod(1, 1, 1), R, depth)),
    )
    seed = b.rng.randrange(1000)
    cfg = rt.GeneratorConfig(seed=seed, depth=2, radius=R, degree_set=(3, 4))
    b.add(
        "cli.generate_degrees",
        {"depth": 2},
        lambda: cli_call(
            main, ["generate", "degrees", "--radius", "2", "--seed", str(seed), "--depth", "2", "--degrees", "3,4"]
        ),
        lambda out, _o: out[0] == 0 and out[2] == "" and _same_tree(rt, out[1], rt.degree_family_tree(cfg)),
    )


def _same_tree(rt, text, want) -> bool:
    try:
        got = tree_from_text(rt, text)
    except ValueError:
        return False
    return got == want and got.basepoint == want.basepoint


def _realized_text_ok(rt, out, m) -> bool:
    code, stdout, stderr = out
    if code != 0 or stderr:
        return False
    try:
        tree = tree_from_text(rt, stdout)
    except ValueError:
        return False
    nodes = [tree.find_label(s) for s in m.labels]
    if None in nodes:
        return False
    back = rt.tree_to_matrix(tree, [rt.Vertex(x) for x in nodes], labels=m.labels)
    return back.entries == m.entries


def query_round(b: RoundGen):
    """Reads on skeletons built once: ten 20-30-node random trees of
    similar total length, and one deep richly-branching tree with long
    chains.  The ten are the candidates among a fixed number closest to 42
    grid points at mesh r/8; a fixed number of draws keeps the set-up's
    cost from varying with the seed, as rejection sampling did."""
    f, rt = b.f, b.rt
    tiny = b.tiny
    lo, hi = (6, 10) if tiny else (20, 30)
    candidates = [f("random_tree")(b.rng, max_nodes=hi, min_nodes=lo, radius=R) for _ in range(4 if tiny else 30)]
    corpus = sorted(
        candidates, key=lambda t: (not lo <= len(t.nodes()) <= hi, abs(grid_count(t, R / 8) - 42))
    )[: 2 if tiny else 10]
    deep = f("rb_extend")(f("tripod")(1, 1, 1), R, 3 if tiny else 6)

    triples = 10 if tiny else 30
    for tree in corpus if tiny else corpus * 4:
        b.distance_batch(tree, triples, deep=False)
    for _ in range(1 if tiny else 16):
        b.distance_batch(deep, triples, deep=True)
    for tree in corpus + [deep] if tiny else (corpus + [deep]) * 2:
        b.span_project(tree, 3, 10)
        b.independence(tree)
        b.type_of(tree, 2, 2)

    # the oracle's cost on the random trees swings 100-fold with the probe
    # point; on the deep tree it is steady, so the oracle runs there.
    for _ in range(1 if tiny else 5):
        b._oracle(deep, b.vertex(deep), R / (16 if tiny else 64))

    nested = f("parse_formula")(NESTED)
    grid_eval = f("eval_quantified", "grid")
    mesh = R / (4 if tiny else 8)
    for tree in b.rng.sample(corpus, 1 if tiny else 3):
        top = max(tree.dist_to_basepoint(n) for n in tree.nodes())
        b.add(
            "eval_quantified.grid",
            tree_size(tree, grid_points=grid_count(tree, mesh)),
            lambda tree=tree: grid_eval(tree, nested, {}, mesh),
            lambda cv, _o, top=top: cv.lower <= top / 2 <= cv.upper,
        )

    for tree in corpus if tiny else corpus + corpus[:2]:
        path = b.write(tree_text(tree, R), ".tree")
        _cli_indep(b, tree, path)
        _cli_type_of(b, tree, path)
    b.probes()


def _cli_indep(b: RoundGen, tree, path):
    rt = b.rt
    A, B, C = b.point(tree), b.point(tree), b.point(tree)

    def expect(_outs):
        verdict = rt.is_star_independent(rt.IndependenceQuery(tree, (A,), (B,), (C,)))
        if verdict.independent:
            return 0, "independent\n", ""
        fp = rt.format_point
        a, big, small = verdict.witness
        return 1, "dependent\n", f"witness={fp(a)} proj_BC={fp(big)} proj_C={fp(small)}\n"

    argv = ["indep", "--tree", path, "--A", point_spec(A), "--B", point_spec(B), "--C", point_spec(C)]
    b.cli("indep", argv, expect, tree_size(tree))


def _cli_type_of(b: RoundGen, tree, path):
    rt = b.rt
    params = [b.point(tree)]
    pts = [b.point(tree), b.point(tree)]

    def expect(_outs):
        q = rt.type_of(tree, params, pts, R)
        lines = []
        for i, (e, s) in enumerate(zip(q.closest, q.offsets), start=1):
            lines += [f"closest {i} {rt.format_point(e)}", f"offset {i} {rat(s)}"]
        lines.append(f"pair 1 2 {rat(q.pairwise[0][1])}")
        return 0, "\n".join(lines) + "\n", ""

    argv = [
        "type", "of", "--tree", path,
        "--params", ",".join(point_spec(x) for x in params),
        "--points", ",".join(point_spec(x) for x in pts),
    ]
    b.cli("type_of", argv, expect, tree_size(tree))


ROUNDS = {"deficiency": deficiency_round, "realize": realize_round, "query": query_round}
WORKLOADS = tuple(ROUNDS)


def build(workload: str, api, seed: int, workdir: str, tiny: bool = False) -> list[Task]:
    """Set-up of one workload: its round of tasks, in seeded order."""
    b = RoundGen(api, random.Random(f"perfbench-{workload}-{seed}"), workdir, tiny)
    ROUNDS[workload](b)
    order = list(b.tasks)
    b.rng.shuffle(order)
    return order
