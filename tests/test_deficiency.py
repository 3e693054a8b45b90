import hashlib
from fractions import Fraction
from functools import reduce

from rtrees import (
    GlueSpec,
    TreeSkeleton,
    Vertex,
    distance,
    glue_family,
    materialize,
    normalize_point,
    point_on_edge,
    psi_at,
    psi_grid_oracle,
    random_tree,
    rb_deficiency,
    rb_extend,
    segment,
    tripod,
)
import rtrees.deficiency as deficiency
from rtrees.deficiency import (
    _certificate_profile,
    _family_certificate,
    _psi_at,
    _reach_profile,
    psi_at_with_witness,
    psi_objective,
)
from rtrees.pl import PL, distance_profile
from conftest import random_corpus, rng_for, tree_grid


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
    vertex that materialize makes of it: same value, same witness triple."""
    cases = [random_tree(seed, max_nodes=7) for seed in range(100, 112)]
    cases += [rb_extend(tripod(1, 1, 1), R, k) for k in range(3)]
    rng = rng_for("psi-in-place")
    for tree in cases:
        for u, v, length in tree.edges():
            for den in (2, 3, 5, 7):
                x = point_on_edge(tree, u, v, length * Fraction(rng.randrange(1, den), den))
                val, wits = psi_at_with_witness(tree, x, R)
                mat = materialize(tree, [x], prefix="x")
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
    """``rb_deficiency`` refining every edge in ``tree.edges()`` order, with
    no cap and no early stop: the reference the pruned scan must equal."""
    if not tree.edges():
        return psi_at(tree, Vertex(tree.basepoint), r)
    cache = {}

    def eval_vertex(node):
        if node not in cache:
            key = Vertex(node)
            if r <= tree.dist_to_basepoint(node):
                cache[node] = (Fraction(0), (key, key, key))
            else:
                cache[node] = _psi_at(tree, r, key)[:2]
        return cache[node]

    best = max(eval_vertex(node)[0] for node in tree.nodes())
    for u, v, length in tree.edges():
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
            val, wits, host = _psi_at(tree, r, point_on_edge(tree, u, v, arg))
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
    # a guard on the pruning, not on timing: the full scan makes 117 calls
    calls = []
    real = deficiency._certificate_profile

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(deficiency, "_certificate_profile", counted)
    assert rb_deficiency(rb_extend(tripod(1, 1, 1), R, 4), R) == 1
    assert len(calls) <= 40
