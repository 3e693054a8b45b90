"""Gluing, amalgamation and net extensions against copy-and-rebuild references.

The library grows each of these trees on one ``skeleton._TreeBuilder``.  The
references below copy and rebuild whole trees instead, with the edge-splitting
loop ``conftest.reference_materialize`` and ``Materialization.graft``; both
must give equal trees (node ids included), equal embeddings and the same
errors on a seeded corpus.
"""

from fractions import Fraction
from itertools import count
from typing import Optional

from rtrees import (
    EdgePoint,
    GeneratorConfig,
    GlueSpec,
    SkeletonError,
    SubtreeMap,
    TreeSkeleton,
    Vertex,
    amalgamate,
    canonicalize,
    degree_family_tree,
    distance,
    glue_family,
    normalize_point,
    random_tree,
    rb_extend,
    segment,
    spanned_subtree,
    transfer_point,
    validate,
)
from rtrees.amalgams import MalformedSpecError, RadiusExceededError
from rtrees.generators import random_point, random_rat
from rtrees.skeleton import grid_points
from conftest import gensym, reference_materialize, rng_for


def _rename_tree(tree, prefix):
    edges = [(prefix + u, prefix + v, w) for u, v, w in tree.edges()]
    labels = {prefix + n: names for n, names in tree.labels.items()}
    extra = [prefix + n for n in tree.nodes()]
    return TreeSkeleton(prefix + tree.basepoint, edges, labels=labels, extra_nodes=extra)


def _rename_point(pt, prefix):
    if isinstance(pt, Vertex):
        return Vertex(prefix + pt.node)
    return EdgePoint(prefix + pt.u, prefix + pt.v, pt.offset)


def glue_family_ref(spec, r):
    """Materialize each factor at its anchor and the base at every
    attachment point, then graft the renamed factors onto the base.  The
    radius check names the first node of the factor itself that is too far,
    never the factor's cut node."""
    r = Fraction(r)
    base = spec.base
    attach_base_pts = []
    prepared = []
    for idx, (sub, at_sub, at_base) in enumerate(spec.attachments):
        try:
            at_base = normalize_point(base, at_base)
        except SkeletonError as exc:
            raise MalformedSpecError(f"attachment {idx}: {exc}") from exc
        base_dist = distance(base, Vertex(base.basepoint), at_base)
        mat_sub = reference_materialize(sub, [at_sub], prefix="at")
        anchor = mat_sub.node_for(normalize_point(sub, at_sub))
        for node in sub.nodes():
            ecc = mat_sub.tree.vertex_distance(anchor, node)
            if base_dist + ecc > r:
                raise RadiusExceededError(Vertex(node), base_dist + ecc, r)
        attach_base_pts.append(at_base)
        prepared.append((mat_sub.tree, anchor, at_base))

    mat_base = reference_materialize(base, attach_base_pts, prefix="gl")
    edges, labels = [], {}
    taken = set(mat_base.tree.nodes())
    for idx, (sub_tree, anchor, at_base) in enumerate(prepared):
        prefix = f"g{idx}:"
        while any((prefix + n) in taken for n in sub_tree.nodes() if n != anchor):
            prefix = prefix[:-1] + "+:"
        base_node = mat_base.node_for(at_base)

        def rn(node):
            return base_node if node == anchor else prefix + node

        for u, v, w in sub_tree.edges():
            edges.append((rn(u), rn(v), w))
        for n, names in sub_tree.labels.items():
            labels.setdefault(rn(n), set()).update(names)
        taken.update(rn(n) for n in sub_tree.nodes())

    glued = canonicalize(mat_base.graft(edges, labels))
    report = validate(glued, r)
    if not report.ok:
        raise MalformedSpecError(f"glued tree invalid: {report}")
    return glued


def amalgamate_ref(m1, m2, shared, r):
    """Cut ``m2`` at the boundary of the shared subtree, collect the hanging
    components by a search, and graft each onto a materialized left copy."""
    r = Fraction(r)
    if shared.source is not m1 and shared.source != m1:
        raise MalformedSpecError("shared map source must be the left tree")
    if shared.target is not m2 and shared.target != m2:
        raise MalformedSpecError("shared map target must be the right tree")
    shared.check()
    inv = shared.inverse()
    s2 = spanned_subtree(m2, [b for _, b in shared.pairs], adjoin_basepoint=True)

    boundary = []
    for (u, v), intervals in s2.edge_cover.items():
        for lo, hi in intervals:
            for off in (lo, hi):
                pt = normalize_point(m2, EdgePoint(u, v, off))
                if isinstance(pt, EdgePoint):
                    boundary.append(pt)
    mat2 = reference_materialize(m2, boundary, prefix="bd")
    work2 = mat2.tree

    def work_edge_covered(u, v):
        src_key, o_u, o_v = mat2.spans[(u, v) if u < v else (v, u)]
        lo, hi = (o_u, o_v) if o_u <= o_v else (o_v, o_u)
        return any(clo <= lo and hi <= chi for clo, chi in s2.edge_cover.get(src_key, ()))

    def work_node_covered(n):
        return s2.covers(mat2.to_source[n])

    comps = []
    seen = set()
    for start in work2.nodes():
        if start in seen or work_node_covered(start):
            continue
        nodes, comp_edges, attach, queue = {start}, [], None, [start]
        seen.add(start)
        while queue:
            cur = queue.pop()
            for nb in work2.neighbors(cur):
                if work_edge_covered(*((cur, nb) if cur < nb else (nb, cur))):
                    continue
                if work_node_covered(nb):
                    if attach is not None and attach != nb:
                        raise MalformedSpecError("hanging branch touches the shared subtree twice")
                    attach = nb
                    comp_edges.append((cur, nb, work2.edge_length(cur, nb)))
                    continue
                if nb not in nodes:
                    nodes.add(nb)
                    seen.add(nb)
                    comp_edges.append((cur, nb, work2.edge_length(cur, nb)))
                    queue.append(nb)
        if attach is None:
            raise MalformedSpecError("hanging branch never meets the shared subtree")
        comps.append((attach, comp_edges, nodes))

    left = _rename_tree(m1, "left:")
    attach_pts_left = [
        _rename_point(normalize_point(m1, inv.map_point(mat2.to_source[a])), "left:")
        for a, _, _ in comps
    ]
    mat_left = reference_materialize(left, attach_pts_left, prefix="am")
    edges, labels = [], {}
    for (attach, comp_edges, nodes), left_pt in zip(comps, attach_pts_left):
        attach_node = mat_left.node_for(normalize_point(left, left_pt))

        def rn(node):
            return attach_node if node == attach else f"right:{node}"

        for u, v, w in comp_edges:
            edges.append((rn(u), rn(v), w))
        for n in nodes:
            if work2.labels_of(n):
                labels[rn(n)] = work2.labels_of(n)

    amalgam = mat_left.graft(edges, labels)
    for viol in validate(amalgam, r).violations:
        if viol.kind == "radius_exceeded":
            node = viol.detail.split()[1]
            raise RadiusExceededError(Vertex(node), amalgam.dist_to_basepoint(node), r)
        if viol.kind in ("cycle", "disconnected", "non_positive_edge"):
            raise MalformedSpecError(f"amalgam invalid: {viol.detail}")

    g1 = SubtreeMap(
        source=m1,
        target=amalgam,
        pairs=tuple((Vertex(n), mat_left.push_forward(Vertex("left:" + n))) for n in m1.nodes()),
    )
    g2_pairs = []
    for n in m2.nodes():
        if s2.covers(Vertex(n)):
            m1_pt = normalize_point(m1, inv.map_point(Vertex(n)))
            npt = mat_left.push_forward(_rename_point(m1_pt, "left:"))
            g2_pairs.append((Vertex(n), normalize_point(amalgam, npt)))
        else:
            g2_pairs.append((Vertex(n), Vertex(f"right:{n}")))
    return amalgam, g1, SubtreeMap(source=m2, target=amalgam, pairs=tuple(g2_pairs))


def _hang_at_net_ref(tree, r, net, prefix, tip_prefixes, how_many):
    """Materialize ``tree`` at the net and graft ``how_many(work, node, l)``
    fresh edges of length ``l = r - d(p, node)`` at each net node inside
    the sphere, ``work`` being the materialized tree."""
    mat = reference_materialize(tree, net, prefix=prefix)
    work = mat.tree
    taken = set(work.nodes())
    fresh = []
    for pt in net:
        node = mat.node_for(normalize_point(tree, pt))
        l = r - work.dist_to_basepoint(node)
        if l <= 0:
            continue
        for _ in range(how_many(work, node, l)):
            fresh.append((node, gensym(taken, next(tip_prefixes)), l))
    return mat.graft(fresh)


def rb_extend_ref(tree, r, depth):
    """One round on the grid of mesh ``r / 2**depth``, vertices included,
    topping each net node up to three directions that reach the sphere."""
    r = Fraction(r)
    tips = (f"w{i}_" for i in count(1))
    return _hang_at_net_ref(
        tree, r, grid_points(tree, r / 2 ** depth), "net", tips,
        lambda work, node, l: 3 - sum(1 for reach in work.reaches_at(node) if reach >= l),
    )


def degree_family_ref(cfg):
    """Round ``j`` rebuilds the whole tree: the edge points of the grid of
    mesh ``mesh0 / 2**j`` on the last round's tree, with ``k - 2`` edges at
    each for the round's degree ``k``."""
    r = cfg.radius
    mesh0 = cfg.mesh if cfg.mesh is not None else r / 2
    tree = segment(r, basepoint="p", tip="z0")
    tips = (f"r{i}_" for i in count(1))
    for j in range(cfg.depth + 1):
        extra = cfg.degree_set[j % len(cfg.degree_set)] - 2
        net = [pt for pt in grid_points(tree, mesh0 / 2 ** j) if isinstance(pt, EdgePoint)]
        tree = _hang_at_net_ref(tree, r, net, f"d{j}_", tips, lambda work, node, l: extra)
    return tree


def _outcome(fn, *args):
    """The result, or the error's class and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _as_comparable(out):
    if isinstance(out, tuple) and len(out) == 3:  # an amalgam and its two embeddings
        amalgam, g1, g2 = out
        return amalgam, g1.pairs, g2.pairs
    return out


def _labelled(rng, tree, rename: Optional[str] = None, share=0.4):
    """``tree`` with about ``share`` of its nodes labelled; ``rename``
    prefixes some node ids so that a factor's renamed ids can collide with
    them."""
    name = {n: n for n in tree.nodes()}
    if rename:
        for n in tree.nodes():
            if n != tree.basepoint and rng.random() < 0.5:
                name[n] = rename + n
    labels = {name[n]: (f"L{n}",) for n in tree.nodes() if rng.random() < share}
    return TreeSkeleton(
        tree.basepoint,
        [(name[u], name[v], w) for u, v, w in tree.edges()],
        labels=labels,
        extra_nodes=[name[n] for n in tree.nodes()],
    )


def _glue_case(rng):
    base = _labelled(rng, random_tree(rng, max_nodes=6, radius=Fraction(3, 2)),
                     rename=rng.choice([None, "g0:", "g1:"]))
    attachments = []
    for _ in range(rng.randint(0, 3)):
        sub = random_tree(rng, max_nodes=4, radius=random_rat(rng, Fraction(1, 4), 1))
        if rng.random() < 0.5:
            sub = _labelled(rng, sub)
        attachments.append((sub, random_point(rng, sub), random_point(rng, base)))
    return GlueSpec(base=base, attachments=tuple(attachments)), rng.choice([2, Fraction(5, 2), 3])


def test_glue_family_matches_materialize_and_graft():
    outcomes = set()
    for k in range(150):
        spec, r = _glue_case(rng_for(("glue-ref", k)))
        want = _outcome(glue_family_ref, spec, r)
        assert _outcome(glue_family, spec, r) == want, k
        outcomes.add(want[0].__name__ if isinstance(want, tuple) else "tree")
    # the corpus reaches both successes and radius failures
    assert outcomes == {"tree", "RadiusExceededError"}


def _amalgam_case(rng):
    # labels keep every base vertex addressable after gluing
    base = _labelled(rng, random_tree(rng, max_nodes=5, radius=Fraction(1)), share=1)
    sides = []
    for _ in range(2):
        attachments = []
        for _ in range(rng.randint(1, 3)):
            at = random_point(rng, base)
            budget = 2 - distance(base, Vertex(base.basepoint), at)
            if budget > 0:
                arm = random_tree(rng, max_nodes=4, radius=budget * Fraction(rng.randint(1, 4), 4))
                attachments.append((_labelled(rng, arm), Vertex(arm.basepoint), at))
        sides.append(glue_family(GlueSpec(base=base, attachments=tuple(attachments)), 2))
    m1, m2 = sides
    # vertices and edge points of the base, addressed in each glued tree
    common = {random_point(rng, base) for _ in range(rng.randint(0, 4))}
    pairs = tuple((transfer_point(m1, pt), transfer_point(m2, pt)) for pt in sorted(common, key=repr))
    return m1, m2, SubtreeMap(source=m1, target=m2, pairs=pairs), rng.choice([2, Fraction(3, 2), 1])


def test_amalgamate_matches_materialize_and_graft():
    outcomes = set()
    for k in range(120):
        m1, m2, shared, r = _amalgam_case(rng_for(("amalgam-ref", k)))
        want = _as_comparable(_outcome(amalgamate_ref, m1, m2, shared, r))
        assert _as_comparable(_outcome(amalgamate, m1, m2, shared, r)) == want, k
        outcomes.add(want[0].__name__ if len(want) == 2 else "tree")
    assert outcomes == {"tree", "RadiusExceededError"}


def test_net_extensions_match_materialize_and_graft():
    meshes = [None, None, Fraction(2, 3), Fraction(4, 5), Fraction(1, 2)]
    for k in range(30):
        rng = rng_for(("net-ref", k))
        tree = _labelled(rng, random_tree(rng, max_nodes=6, radius=Fraction(2)))
        r = rng.choice([2, Fraction(5, 2), Fraction(7, 3)])
        got, want = rb_extend(tree, r, k % 3), rb_extend_ref(tree, r, k % 3)
        assert got == want and got.basepoint == want.basepoint, ("rb", k)
        cfg = GeneratorConfig(
            k, k % 3, rng.choice([1, 2, Fraction(3, 2), Fraction(5, 3)]),
            rng.choice([(3,), (3, 4), (4, 5), (3, 5, 6)]), rng.choice(meshes),
        )
        got, want = degree_family_tree(cfg), degree_family_ref(cfg)
        assert got == want and got.basepoint == want.basepoint, ("degrees", k, cfg)
