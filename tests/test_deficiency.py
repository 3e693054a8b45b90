import hashlib
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest

from rtrees import (
    EdgePoint,
    GlueSpec,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    distance,
    eval_quantified,
    glue_family,
    k_star,
    normalize_point,
    parse_formula,
    point_on_edge,
    point_on_segment,
    psi_at,
    psi_grid_oracle,
    random_tree,
    rb_deficiency,
    rb_extend,
    segment,
    tripod,
)
import rtrees.deficiency as deficiency
from rtrees.deficiency import _edge_sup, psi_at_with_witness, psi_objective
from rtrees.pl import PL, _pl, distance_profile
from rtrees.skeleton import _meet
from rtrees.cli import main
from conftest import random_corpus, reference_materialize, rng_for, tree_grid


R = Fraction(2)


def test_psi_tripod_values(tripod):
    # boundary point: witnesses collapse onto the point itself
    assert psi_at(tripod, Vertex("a"), R) == 0
    # three full-reach branches at y
    assert psi_at(tripod, Vertex("y"), R) == 0
    # midpoint of the trunk: the best triple leaves a defect of 1
    assert psi_at(tripod, point_on_edge(tripod, "p", "y", Fraction(1, 2)), R) == 1
    # the basepoint: witnesses deep into the tripod yield 4/3
    assert psi_at(tripod, Vertex("p"), R) == Fraction(4, 3)


def test_psi_witnesses_attain_value(tripod):
    for x in tree_grid(tripod, 3):
        val, wits = psi_at_with_witness(tripod, x, R)
        assert psi_objective(tripod, x, R, wits) == val


def test_psi_matches_grid_oracle_tripod(tripod):
    mesh = R / 16
    for x in [Vertex("p"), Vertex("y"), Vertex("a"),
              point_on_edge(tripod, "p", "y", Fraction(1, 2)),
              point_on_edge(tripod, "y", "a", Fraction(1, 4))]:
        exact = psi_at(tripod, x, R)
        oracle = psi_grid_oracle(tripod, x, R, mesh)
        assert exact <= oracle <= exact + 2 * mesh


def test_psi_matches_grid_oracle_random():
    for k, tree in enumerate(random_corpus("psi", 6, max_nodes=6)):
        mesh = R / 16
        rng = rng_for(("psi-probe", k))
        nodes = tree.nodes()
        probes = [Vertex(nodes[rng.randrange(len(nodes))])]
        if tree.edges():
            u, v, length = tree.edges()[0]
            probes.append(point_on_edge(tree, u, v, length / 2))
        for x in probes:
            exact = psi_at(tree, x, R)
            oracle = psi_grid_oracle(tree, x, R, mesh)
            assert exact <= oracle <= exact + 2 * mesh


def test_psi_zero_with_three_full_branches():
    # any point with three branches reaching the sphere has psi 0
    star = rb_extend(TreeSkeleton("p", (), extra_nodes=["p"]), R, 0)
    assert psi_at(star, Vertex("p"), R) == 0
    # and so does every boundary point
    for node in star.nodes():
        if star.dist_to_basepoint(node) == R:
            assert psi_at(star, Vertex(node), R) == 0


def test_psi_monotone_under_gluing(tripod):
    # attaching a subtree never increases psi at existing points
    arm = segment(Fraction(1, 2), basepoint="s0", tip="c")
    bigger = glue_family(
        GlueSpec(base=tripod, attachments=((arm, Vertex("s0"), Vertex("y")),)), R
    )
    for x in [Vertex("p"), Vertex("y"), point_on_edge(tripod, "p", "y", Fraction(1, 2))]:
        assert psi_at(bigger, x, R) <= psi_at(tripod, x, R)


def test_rb_deficiency_values(tripod, lone_point):
    # single point: no witnesses exist inside the truncation, value is r
    assert rb_deficiency(lone_point, R) == R
    assert rb_deficiency(lone_point, 0) == 0
    # tripod: the sup of psi is attained at the basepoint
    assert rb_deficiency(tripod, R) == Fraction(4, 3)
    # 3-star of sphere-reaching legs: peaks inside the legs at r/2
    star = rb_extend(TreeSkeleton("p", (), extra_nodes=["p"]), R, 0)
    assert rb_deficiency(star, R) == 1


def test_rb_deficiency_upper_bounds_grid_psi(tripod):
    sup = rb_deficiency(tripod, R)
    for x in tree_grid(tripod, 8):
        assert psi_at(tripod, x, R) <= sup


def test_rb_extend_examples(lone_point):
    ext = rb_extend(lone_point, R, 0)
    assert len(ext.edges()) == 3
    assert all(w == R for _, _, w in ext.edges())

    base = tripod(1, 1, 1)
    ext1 = rb_extend(base, R, 1)
    # every net point of the input now carries 3 sphere-reaching branches
    reach = ext1.directional_reach()
    for node in ext1.nodes():
        l = R - ext1.dist_to_basepoint(node)
        if l > 0 and node in base.nodes():
            full = sum(
                1 for nb in ext1.neighbors(node) if reach[(node, nb)] >= l
            )
            assert full >= 3


def test_rb_extend_deterministic(tripod):
    assert rb_extend(tripod, R, 1) == rb_extend(tripod, R, 1)


def test_rb_extend_keeps_net_points_saturated(tripod):
    # a second application at the same depth adds nothing at points that
    # were net points of the first pass
    once = rb_extend(tripod, R, 1)
    twice = rb_extend(once, R, 1)
    reach2 = twice.directional_reach()
    for node in once.nodes():
        if node not in tripod.nodes():
            continue
        deg_once = once.degree(node)
        deg_twice = twice.degree(node)
        assert deg_once == deg_twice


def test_rb_extend_shrinks_deficiency_on_input_points(tripod):
    from rtrees import transfer_point

    # the deficiency restricted to the input tree's points drops with depth
    for depth in (0, 1, 2):
        ext = rb_extend(tripod, R, depth)
        mesh_bound = R / (2 ** depth)
        for x in tree_grid(tripod, 4):
            assert psi_at(ext, transfer_point(ext, x), R) <= mesh_bound


def test_rb_deficiency_weakly_decreases_under_extension(tripod):
    values = [rb_deficiency(rb_extend(tripod, R, k), R) for k in (0, 1, 2)]
    assert values[0] >= values[1] >= values[2]


def test_edge_point_in_place_matches_materialized_vertex():
    """psi at an edge point, evaluated in place, equals psi at the degree-2
    vertex that the reference materialization makes of it: same value, same
    witness triple."""
    cases = [random_tree(seed, max_nodes=7) for seed in range(100, 112)]
    cases += [rb_extend(tripod(1, 1, 1), R, k) for k in range(3)]
    rng = rng_for("psi-in-place")
    for tree in cases:
        for u, v, length in tree.edges():
            for den in (2, 3, 5, 7):
                x = point_on_edge(tree, u, v, length * Fraction(rng.randrange(1, den), den))
                val, wits = psi_at_with_witness(tree, x, R)
                mat = reference_materialize(tree, [x], prefix="x")
                mval, mwits = psi_at_with_witness(mat.tree, Vertex(mat.node_for(x)), R)
                pulled = tuple(normalize_point(tree, mat.pull_back(w)) for w in mwits)
                assert (val, wits) == (mval, pulled)
                assert psi_objective(tree, x, R, wits) == val


def _pinned_cases():
    for k in range(4):
        yield f"rb{k}", rb_extend(tripod(1, 1, 1), R, k)
    for i in range(25):
        yield f"random{i}", random_tree(i, max_nodes=7)


def _psi_pin_text():
    """psi with its witness triple at every vertex and at the 1/3, 1/2 and
    5/7 points of every edge, plus the sup, for the pinned cases."""
    lines = []
    for name, tree in _pinned_cases():
        probes = [Vertex(node) for node in tree.nodes()]
        for u, v, length in tree.edges():
            for frac in (Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)):
                probes.append(point_on_edge(tree, u, v, frac * length))
        for x in probes:
            val, wits = psi_at_with_witness(tree, x, R)
            lines.append(f"{name} {x!r} {val} {wits!r}")
        lines.append(f"{name} sup {rb_deficiency(tree, R)}")
    return "\n".join(lines)


# sha256 of _psi_pin_text(), recorded before the PL kernel moved to
# rtrees.pl and psi's edge term became its envelope
PSI_PIN_SHA256 = "6dc247ff9ccc793c4c6d183b8e010c6b16c5c2f6a849cd3ad098113532909fb2"


def test_psi_witnesses_and_sup_unchanged():
    got = hashlib.sha256(_psi_pin_text().encode()).hexdigest()
    assert got == PSI_PIN_SHA256


# -- the certificates of the refinement loop that rb_deficiency ran before its
# -- exact envelope, kept as the reference the envelope must equal


def _linear(tree, edge, n0, n1, d):
    """The linear function from ``n0 / d`` at the edge's first endpoint to
    ``n1 / d`` at its second, the edge's length read off the integer heights."""
    _, num, _, D = tree._root_data()
    e = lcm(D, d)
    ln = abs(num[edge[0]] - num[edge[1]]) * (e // D)
    return _pl(e, (0, ln), (n0 * (e // d), n1 * (e // d)))


def _reach_profile(tree, edge, r):
    """``l = r - d(p, x)`` as a PL function of the edge offset; the edge
    joins a node to its parent, so ``d(p, x)`` is linear along it."""
    _, num, _, D = tree._root_data()
    rn, q = r.numerator * D, r.denominator
    return _linear(tree, edge, rn - num[edge[0]] * q, rn - num[edge[1]] * q, D * q)


def _certificate_profile(tree, edge, lfun, witnesses):
    """Objective of a fixed witness triple as a PL function of the edge
    offset, given the edge's reach profile ``lfun``; a valid upper bound for
    psi along the whole edge."""
    witnesses = [normalize_point(tree, w) for w in witnesses]
    profs = [distance_profile(tree, edge, w) for w in witnesses]
    terms = [abs(prof.sub(lfun)) for prof in profs]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        _, hi, _, hj, m, d = _meet(tree, witnesses[i], witnesses[j])
        dij = hi + hj - 2 * m
        terms.append(profs[i].add(profs[j]).sub(_linear(tree, edge, dij, dij, d)))
    return reduce(PL.max_with, terms)


def _family_certificate(tree, edge, lfun, a, b, lo):
    """Exact value, along the edge, of the config family whose outer split
    slides toward ``b`` over a host ray that ends with the tree edge
    ``a``-``b``, at distances ``t2`` from ``lo`` up to ``D = d(x, b)``: for a
    split at ``t2`` the best objective is ``max(2 t2, |t2 - l|, c3)`` with
    ``c3 = l - D - H``, convex in ``t2``, so least at ``l/3`` clamped by
    ``max(lo)``, ``min(D)``, ``max(0)`` in that order."""
    zero = _linear(tree, edge, 0, 0, 1)
    D = distance_profile(tree, edge, Vertex(b))
    table = tree._reach_num()
    H = max((table[(b, z)] for z in tree.neighbors(b) if z != a), default=0)
    c3 = lfun.sub(D).sub(_linear(tree, edge, H, H, tree._root_data()[3]))
    t2 = lfun.scale(Fraction(1, 3)).max_with(lo).min_with(D).max_with(zero)
    return t2.scale(Fraction(2)).max_with(abs(t2.sub(lfun))).max_with(c3)


def _seven_candidate_family(tree, edge, r, a, b, lo):
    """The family certificate as a min-envelope over seven clamped
    candidates for the split distance, kept here as the reference that
    the single clamped candidate of ``_family_certificate`` must equal."""
    length = tree.edge_length(*edge)
    zero = PL.const(Fraction(0), length, Fraction(0))
    lfun = _reach_profile(tree, edge, r)
    D = distance_profile(tree, edge, Vertex(b))
    H = (tree.reaches_at(b, exclude=(a,)) or [Fraction(0)])[0]
    c3 = lfun.sub(D).sub(PL.const(Fraction(0), length, H))
    cands = [
        lo,
        D,
        lfun.scale(Fraction(1, 3)),
        lfun,
        c3.scale(Fraction(1, 2)),
        lfun.sub(c3),
        lfun.add(c3),
    ]
    objectives = []
    for cand in cands:
        t2 = cand.max_with(lo).min_with(D).max_with(zero)
        objectives.append(t2.scale(Fraction(2)).max_with(abs(t2.sub(lfun))).max_with(c3))
    return reduce(PL.min_with, objectives)


def test_family_certificate_equals_seven_candidate_envelope():
    trees = [rb_extend(tripod(1, 1, 1), R, k) for k in (1, 2)]
    trees += [random_tree(s, max_nodes=7) for s in range(1, 17)]
    checked = 0
    for tree in trees:
        edges = [(u, v) for u, v, _ in tree.edges()]
        for edge in edges:
            zero = PL.const(Fraction(0), tree.edge_length(*edge), Fraction(0))
            lfun = _reach_profile(tree, edge, R)
            for u, v in edges:
                for a, b in ((u, v), (v, u)):
                    for lo in (zero, distance_profile(tree, edge, Vertex(a))):
                        new = _family_certificate(tree, edge, lfun, a, b, lo)
                        old = _seven_candidate_family(tree, edge, R, a, b, lo)
                        # sub samples both on the union of their breakpoints
                        assert set(new.sub(old).ys) == {0}, (edge, a, b, lo)
                        checked += 1
    assert checked > 1000


def _full_edge_scan(tree, r, max_refinements_per_edge=200):
    """The refinement loop on every edge in ``tree.edges()`` order, with no
    cap and no early stop.  Edges that cross the radius sphere are first cut
    at the sphere point (psi depends only on the metric tree), so every edge
    lies within the ball or outside it, and the loop may stop at an endpoint
    of an edge within it: psi there is an exact sample."""
    if not tree.edges():
        return psi_at(tree, Vertex(tree.basepoint), r)
    cuts = []
    for u, v, length in tree.edges():
        du, dv = tree.dist_to_basepoint(u), tree.dist_to_basepoint(v)
        if min(du, dv) < r < max(du, dv):
            cuts.append(point_on_edge(tree, u, v, abs(r - du)))
    tree = reference_materialize(tree, cuts, prefix="sphere").tree
    cache = {}

    def eval_vertex(node):
        if node not in cache:
            key = Vertex(node)
            if r <= tree.dist_to_basepoint(node):
                cache[node] = (Fraction(0), (key, key, key))
            else:
                cache[node] = _ref_psi_at(tree, r, key)[:2]
        return cache[node]

    best = max(eval_vertex(node)[0] for node in tree.nodes())
    for u, v, length in tree.edges():
        if min(tree.dist_to_basepoint(u), tree.dist_to_basepoint(v)) >= r:
            continue  # outside the ball
        zero = PL.const(Fraction(0), length, Fraction(0))
        lfun = _reach_profile(tree, (u, v), r)
        bound_pl = _certificate_profile(tree, (u, v), lfun, eval_vertex(u)[1]).min_with(
            _certificate_profile(tree, (u, v), lfun, eval_vertex(v)[1])
        )
        for a, b in ((u, v), (v, u)):
            bound_pl = bound_pl.min_with(_family_certificate(tree, (u, v), lfun, a, b, zero))
        seen_hosts = set()
        steps = 0
        while True:
            bound, arg = bound_pl.argmax()
            if bound <= best:
                break
            steps += 1
            assert steps <= max_refinements_per_edge
            if arg <= 0 or arg >= length:
                break
            val, wits, host = _ref_psi_at(tree, r, point_on_edge(tree, u, v, arg))
            best = max(best, val)
            bound_pl = bound_pl.min_with(_certificate_profile(tree, (u, v), lfun, wits))
            if host is not None and host not in seen_hosts:
                seen_hosts.add(host)
                lo_pl = distance_profile(tree, (u, v), Vertex(host[0]))
                bound_pl = bound_pl.min_with(
                    _family_certificate(tree, (u, v), lfun, *host, lo_pl)
                )
    return best


def test_rb_deficiency_equals_full_edge_scan():
    # the cap on each edge is a 2-Lipschitz tent; a 1-Lipschitz one (a + L,
    # (a + b + L)/2) gives the same sup on the extensions but a smaller one
    # on a few of the random trees; at radii 1 and 3/2 some of those reach
    # past the sphere
    cases = []
    for base in [tripod(1, 1, 1), segment(2)] + [random_tree(s, max_nodes=5) for s in (3, 4)]:
        cases += [(rb_extend(base, R, k), R) for k in (1, 2, 3)]
    for tree in random_corpus("full-scan", 100, max_nodes=8):
        cases += [(tree, r) for r in (Fraction(1), Fraction(3, 2), R, Fraction(5, 2))]
    assert any(max(t.dist_to_basepoint(n) for n in t.nodes()) > r for t, r in cases)
    for tree, r in cases:
        assert rb_deficiency(tree, r) == _full_edge_scan(tree, r), (tree.edges(), r)


def test_psi_is_2_lipschitz_and_at_most_l_along_edges():
    # the premises of rb_deficiency's edge cap, on points of a common edge
    trees = [(t, R) for t in random_corpus("lipschitz", 12, max_nodes=6)]
    trees += [(t, Fraction(3, 2)) for t in random_corpus("lipschitz-cut", 6, max_nodes=6)]
    trees.append((rb_extend(tripod(1, 1, 1), R, 1), R))
    checked = 0
    for tree, r in trees:
        for u, v, length in tree.edges():
            pts = [point_on_edge(tree, u, v, length * Fraction(k, 4)) for k in range(5)]
            pts = [x for x in pts if distance(tree, x, Vertex(tree.basepoint)) <= r]
            vals = [psi_at(tree, x, r) for x in pts]
            for x, px in zip(pts, vals):
                assert px <= r - distance(tree, x, Vertex(tree.basepoint))
                for y, py in zip(pts, vals):
                    assert abs(px - py) <= 2 * distance(tree, x, y)
                    checked += 1
    assert checked > 500


def test_rb_deficiency_skips_edges_under_the_cap(monkeypatch):
    # a guard on the pruning, not on timing: the tree has 54 edges
    calls = []
    real = deficiency._edge_sup

    def counted(*args):
        calls.append(args[2:4])
        return real(*args)

    monkeypatch.setattr(deficiency, "_edge_sup", counted)
    assert rb_deficiency(rb_extend(tripod(1, 1, 1), R, 4), R) == 1
    assert len(calls) <= 20


def test_sup_past_the_sphere(tmp_path, capsys):
    # trees that reach past the radius: psi 1/4 from p on a leg is 1/2, which
    # the sup once missed by taking an endpoint bound past the sphere as exact
    star = k_star(3, Fraction(3, 2))
    pins = random_corpus("pl-kernel-pin", 30, max_nodes=8)
    for tree, leg in ((star, "l1"), (pins[11], "n2"), (pins[26], "n2")):
        x = point_on_edge(tree, "p", leg, Fraction(1, 4))
        assert psi_at(tree, x, 1) == Fraction(1, 2)
        assert psi_grid_oracle(tree, x, 1, Fraction(1, 16)) == Fraction(1, 2)
        assert rb_deficiency(tree, 1) == Fraction(1, 2)
    path = tmp_path / "star.tree"
    path.write_text(
        "radius 3/2\nnode p basepoint\nnode l1\nnode l2\nnode l3\n"
        "edge p l1 3/2\nedge p l2 3/2\nedge p l3 3/2\n"
    )
    assert main(["psi", "--tree", str(path), "--radius", "1"]) == 0
    assert capsys.readouterr().out == "1/2\n"


def _kernel_pin_cases():
    """The 15 workload-shaped extensions at radius 2, and seeded
    ``random_tree(max_nodes=8)`` at radii 1, 3/2, 2 and 5/2."""
    bases = [tripod(1, 1, 1), segment(2)] + [random_tree(s, max_nodes=5) for s in (3, 4, 5)]
    for i, base in enumerate(bases):
        for k in (2, 3, 4):
            yield f"ext{i}.{k}", rb_extend(base, R, k), [R]
    radii = [Fraction(1), Fraction(3, 2), R, Fraction(5, 2)]
    for i, tree in enumerate(random_corpus("pl-kernel-pin", 30, max_nodes=8)):
        yield f"random{i}", tree, radii


def _kernel_pin_text():
    """``rb_deficiency`` and the exact single-block values of ``sup x.
    d(x,p)`` and ``inf x. max(d(x,a), d(x,b))`` over the pinned cases; a
    and b are seeded vertices and edge points with offsets over 11."""
    height = parse_formula("sup x. d(x,p)")
    middle = parse_formula("inf x. max(d(x,a), d(x,b))")
    rng = rng_for("pl-kernel-pin-points")
    lines = []
    for name, tree, radii in _kernel_pin_cases():
        for r in radii:
            lines.append(f"{name} r={r} sup {rb_deficiency(tree, r)}")
        pts = [Vertex(n) for n in tree.nodes()]
        for u, v, length in tree.edges():
            pts.append(point_on_edge(tree, u, v, length * Fraction(rng.randrange(1, 11), 11)))
        lines.append(f"{name} height {eval_quantified(tree, height, {}, R / 8)}")
        for _ in range(4):
            a, b = rng.choice(pts), rng.choice(pts)
            got = eval_quantified(tree, middle, {"a": a, "b": b}, R / 8)
            lines.append(f"{name} middle {a!r} {b!r} {got}")
    return "\n".join(lines)


# sha256 of _kernel_pin_text(), recorded while the PL kernel still held
# Fraction breakpoints and values, and re-recorded when the sup past the
# radius sphere was corrected: only "random11 r=1 sup" (1/3 -> 1/2) and
# "random26 r=1 sup" (0 -> 1/2) changed (test_sup_past_the_sphere)
KERNEL_PIN_SHA256 = "9016855c49f729594ebd93ab65bba149781cf457258119ac8e6c5f2b67075203"


def test_pl_kernel_values_unchanged():
    got = hashlib.sha256(_kernel_pin_text().encode()).hexdigest()
    assert got == KERNEL_PIN_SHA256


def _coprime_offset(rng, tree, length):
    """An offset in (0, length), a multiple of 1/p for a prime p that
    divides neither the tree's denominator nor the length's."""
    den = tree._root_data()[3] * length.denominator
    p = next(p for p in (101, 103, 107, 109) if den % p)
    return Fraction(rng.randrange(1, int(length * p)), p)


def test_distance_profile_matches_distance():
    # the profile is read off integer heights; distance() goes through
    # normalize_point and the arc meet of two given points
    rng = rng_for("distance-profile")
    trees = random_corpus("distance-profile", 20, max_nodes=7)
    trees += [rb_extend(tripod(1, 1, 1), R, 2), rb_extend(random_tree(3, max_nodes=5), R, 2)]
    checked = 0
    for tree in trees:
        targets = [Vertex(n) for n in tree.nodes()]
        for u, v, length in tree.edges():
            targets.append(point_on_edge(tree, u, v, _coprime_offset(rng, tree, length)))
        for u, v, length in tree.edges():
            same_edge = point_on_edge(tree, u, v, _coprime_offset(rng, tree, length))
            for q in targets + [same_edge]:
                prof = distance_profile(tree, (u, v), q)
                xs, ys = prof.xs, prof.ys
                assert xs[0] == 0 and xs[-1] == length
                for x, y in zip(xs, ys):
                    assert y == distance(tree, point_on_edge(tree, u, v, x), q), (u, v, q, x)
                for i in range(len(xs) - 1):
                    mid = (xs[i] + xs[i + 1]) / 2
                    want = distance(tree, point_on_edge(tree, u, v, mid), q)
                    assert (ys[i] + ys[i + 1]) / 2 == want, (u, v, q, mid)
                checked += 1
    assert checked > 1000


def test_distance_profile_sweeps_from_the_first_endpoint_given():
    tree = tripod(1, 1, 1)
    q = point_on_edge(tree, "a", "y", Fraction(1, 3))
    for u, v in (("a", "y"), ("y", "a")):
        prof = distance_profile(tree, (u, v), q)
        for x, y in zip(prof.xs, prof.ys):
            assert y == distance(tree, point_on_edge(tree, u, v, x), q), (u, v, x)


# -- the Fraction walk that the integer walk replaced, kept as a reference -----


def _ref_g(t, reach, l):
    return max(t - l, l - t - reach, Fraction(0))


def _ref_leaving(tree, x):
    table = tree.directional_reach()
    if isinstance(x, Vertex):
        return [
            (table[(x.node, nb)], (nb, tree.edge_length(x.node, nb), x.node))
            for nb in tree.neighbors(x.node)
        ]
    rest = tree.edge_length(x.u, x.v) - x.offset
    return [
        (table[(x.v, x.u)] - rest, (x.u, x.offset, x.v)),
        (table[(x.u, x.v)] - x.offset, (x.v, rest, x.u)),
    ]


def _ref_top(leaving, k):
    pairs = sorted(leaving, reverse=True)[:k]
    vals = [p[0] for p in pairs] + [Fraction(0)] * k
    dirs = [p[1] for p in pairs] + [None] * k
    return vals[:k], dirs[:k]


def _ref_descend(tree, x, direction, depth):
    if depth == 0 or direction is None:
        return x
    table = tree.directional_reach()
    nxt, length, cur = direction
    rem = depth
    while rem > length:
        rem -= length
        best = None
        for z in tree.neighbors(nxt):
            if z != cur and (best is None or table[(nxt, z)] > best[0]):
                best = (table[(nxt, z)], z)
        cur, nxt = nxt, best[1]
        length = tree.edge_length(cur, nxt)
    return normalize_point(tree, EdgePoint(nxt, cur, length - rem))


def _ref_psi_at(tree, r, x):
    """The psi walk before it moved to integers: Fractions
    throughout, and the edge term as the leftmost argmin of an envelope."""
    zero = Fraction(0)
    l = r - distance(tree, x, Vertex(tree.basepoint))
    if l == 0:
        return zero, (x, x, x), None

    def inner_witness(desc):
        if desc[0] == "free":
            _, t2, c2ref = desc
            return point_on_segment(tree, x, c2ref, min(l, t2))
        _, start, t1, direction, reach = desc
        return _ref_descend(tree, start, direction, min(max(l - t1, zero), reach))

    leave0 = _ref_leaving(tree, x)
    vals0, dirs0 = _ref_top(leave0, 3)
    best = [_ref_g(zero, vals0[2], l), None, None]
    best[1] = lambda: tuple(
        _ref_descend(tree, x, dirs0[i], min(l, vals0[i])) for i in range(3)
    )

    def consider(val, maker, host=None):
        if val < best[0]:
            best[:] = [val, maker, host]

    def edge_interior(start, direction, ta, c_in, c_in_desc):
        if 2 * ta >= best[0]:
            return
        b, L, a = direction
        (H,), (h_dir,) = _ref_top([p for p in _ref_leaving(tree, Vertex(b)) if p[1][0] != a], 1)
        c3 = l - ta - L - H
        envelope = PL((zero, L), (2 * ta, 2 * (ta + L))).max_with(
            PL((zero, L), (l - ta, l - ta - L))
        ).max_with(PL.const(zero, L, c3))
        val, s = envelope.argmin()
        if val >= best[0]:
            return
        t2 = ta + s

        def maker():
            c2ref = normalize_point(tree, EdgePoint(b, a, L - s))
            u1 = min(max(l - t2, zero), (L - s) + H)
            if u1 <= L - s:
                y1 = normalize_point(tree, EdgePoint(b, a, L - s - u1))
            else:
                y1 = _ref_descend(tree, Vertex(b), h_dir, u1 - (L - s))
            if c_in <= max(l - t2, zero):
                y3 = inner_witness(c_in_desc)
            else:
                y3 = inner_witness(("free", t2, c2ref))
            return (y1, c2ref, y3)

        consider(val, maker, host=(a, b) if start == Vertex(a) else None)

    stack = []

    def step(start, direction, ta, in_val, in_desc):
        edge_interior(start, direction, ta, in_val, in_desc)
        b, L, a = direction
        stack.append((b, a, ta + L, in_val, in_desc))

    for _reach, d in leave0:
        i = 1 if dirs0[0] == d else 0
        step(x, d, zero, _ref_g(zero, vals0[i], l), ("branch", x, zero, dirs0[i], vals0[i]))

    while stack:
        c2, parent, t2, in_val, in_desc = stack.pop()
        if 2 * t2 >= best[0]:
            continue
        C2 = Vertex(c2)
        leave = [p for p in _ref_leaving(tree, C2) if p[1][0] != parent]
        vals, dirs = _ref_top(leave, 3)
        free_val = max(l - t2, zero)
        third_val = _ref_g(t2, vals[2], l)
        F = max(2 * t2, _ref_g(t2, vals[1], l), min(in_val, free_val, third_val))

        def vertex_maker(C2=C2, t2=t2, vals=vals, dirs=dirs, in_val=in_val,
                         in_desc=in_desc, free_val=free_val, third_val=third_val):
            depth = max(l - t2, zero)
            y1 = _ref_descend(tree, C2, dirs[0], min(depth, vals[0]))
            y2 = _ref_descend(tree, C2, dirs[1], min(depth, vals[1]))
            m = min(in_val, free_val, third_val)
            if third_val == m:
                y3 = inner_witness(("branch", C2, t2, dirs[2], vals[2]))
            elif in_val == m:
                y3 = inner_witness(in_desc)
            else:
                y3 = inner_witness(("free", t2, C2))
            return (y1, y2, y3)

        consider(F, vertex_maker)

        for _reach, d in leave:
            i = 1 if dirs[0] == d else 0
            branch_val = _ref_g(t2, vals[i], l)
            if branch_val < in_val:
                step(C2, d, t2, branch_val, ("branch", C2, t2, dirs[i], vals[i]))
            else:
                step(C2, d, t2, in_val, in_desc)

    return best[0], best[1](), best[2]


WALK_RADII = (Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(5, 2))


def _walk_trees():
    """The nine workload-shaped extensions and 40 seeded random trees."""
    trees = [
        rb_extend(base, R, k)
        for base in (tripod(1, 1, 1), segment(2), random_tree(7, max_nodes=5))
        for k in (2, 3, 4)
    ]
    return trees + random_corpus("psi-walk", 40, max_nodes=8)


def _walk_cases():
    """The walk trees, each with every vertex and two edge points per edge
    (one at an offset over a prime that divides neither ``D`` nor the
    radius's denominator) that lie within each radius."""
    rng = rng_for("psi-walk")
    for tree in _walk_trees():
        pts = [Vertex(n) for n in tree.nodes()]
        for u, v, length in tree.edges():
            pts.append(point_on_edge(tree, u, v, length * Fraction(rng.randrange(1, 7), 7)))
            pts.append(point_on_edge(tree, u, v, _coprime_offset(rng, tree, length)))
        depth = {x: distance(tree, x, Vertex(tree.basepoint)) for x in pts}
        for r in WALK_RADII:
            yield tree, r, [x for x in pts if depth[x] <= r]


def test_integer_walk_equals_fraction_walk():
    checked = 0
    for tree, r, pts in _walk_cases():
        for x in pts:
            want = _ref_psi_at(tree, r, x)[:2]
            assert psi_at_with_witness(tree, x, r) == want, (tree.edges(), r, x)
            assert psi_at(tree, x, r) == want[0]
            checked += 1
    assert checked > 3000


def test_edge_envelope_equals_psi_everywhere():
    # with no sup to beat the walk never stops early, so the envelope is psi
    # at every offset within the radius, not only at its max
    checked = edges = 0
    for tree in _walk_trees():
        for r in WALK_RADII:
            for u, v, length in tree.edges():
                env = _edge_sup(tree, r, u, v, Fraction(-1))
                depths = [tree.dist_to_basepoint(u), tree.dist_to_basepoint(v)]
                assert (env is None) == (min(depths) >= r)
                if env is None:
                    continue
                edges += 1
                xs, ys = env.xs, env.ys
                assert xs[0] == 0 or max(depths) - xs[0] == r
                assert xs[-1] == length or min(depths) + xs[-1] == r
                probes = list(zip(xs, ys))
                for i in range(len(xs) - 1):
                    probes.append(((xs[i] + xs[i + 1]) / 2, (ys[i] + ys[i + 1]) / 2))
                for x, y in probes:
                    assert psi_at(tree, point_on_edge(tree, u, v, x), r) == y, (u, v, r, x)
                    checked += 1
    assert edges > 1000 and checked > 10000


def test_psi_at_builds_no_witness(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("psi_at built a witness")

    monkeypatch.setattr(deficiency, "_descend", refuse)
    tree = rb_extend(tripod(1, 1, 1), R, 2)
    for x in tree_grid(tree, 3):
        psi_at(tree, x, R)
    path = tmp_path / "t.tree"
    path.write_text(
        "radius 2\nnode p basepoint\nnode y\nnode a\nnode b\n"
        "edge p y 1\nedge y a 1\nedge y b 1\npoint m edge p y 1/2\n"
    )
    assert main(["psi", "--tree", str(path), "--at", "m"]) == 0
    assert capsys.readouterr().out == "1\n"


OFF_COMPONENT = "^node 'z' not connected to the basepoint$"


def test_psi_refuses_a_node_off_the_basepoints_component_at_every_point():
    # a skeleton with a node off the basepoint's component induces no model,
    # so psi refuses it everywhere, also on the radius sphere where l = 0
    tree = TreeSkeleton("p", [("p", "a", 1)], extra_nodes=["z"])
    for x in (Vertex("p"), Vertex("a"), point_on_edge(tree, "p", "a", Fraction(1, 2))):
        with pytest.raises(SkeletonError, match=OFF_COMPONENT):
            psi_at(tree, x, 1)
        with pytest.raises(SkeletonError, match=OFF_COMPONENT):
            psi_at_with_witness(tree, x, 1)
    with pytest.raises(SkeletonError, match=OFF_COMPONENT):
        rb_deficiency(tree, 1)


def test_rb_deficiency_refuses_an_edgeless_skeleton_with_a_second_node():
    tree = TreeSkeleton("p", (), extra_nodes=["p", "z"])
    for r in (0, 1):
        with pytest.raises(SkeletonError, match=OFF_COMPONENT):
            rb_deficiency(tree, r)


def test_psi_at_past_the_radius_is_refused(tripod):
    with pytest.raises(ValueError, match="^point lies outside the radius bound$"):
        psi_at(tripod, Vertex("a"), Fraction(3, 2))
