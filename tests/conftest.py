import random
from fractions import Fraction

import pytest

from rtrees import (
    ContextMismatchError,
    EdgePoint,
    GlueSpec,
    Materialization,
    MetricMatrix,
    StepFunction,
    TreeSkeleton,
    Vertex,
    glue_family,
    normalize_point,
    random_tree,
    realize_tree,
)
from rtrees.typespace import require_valid
from rtrees.generators import _draw_step
from rtrees.skeleton import edge_key


@pytest.fixture
def tripod():
    return TreeSkeleton("p", [("p", "y", 1), ("y", "a", 1), ("y", "b", 1)])


@pytest.fixture
def lone_point():
    return TreeSkeleton("p", (), extra_nodes=["p"])


def rng_for(seed) -> random.Random:
    return random.Random(f"rtrees-tests-{seed}")


def zero_function() -> StepFunction:
    return StepFunction((), (), Fraction(0))


def random_step_function(rng: random.Random, mu: int, scale) -> StepFunction:
    """A step function with one to three breakpoints in ``[-scale/2,
    scale/2]`` and ``rho`` at most ``scale/2`` past the last: the sampler's
    own candidate draw, so the same ``rng`` gives the same functions."""
    scale = Fraction(scale)
    n = 24 * scale.denominator
    bs, vs, rho = _draw_step(rng, mu, n, 12 * scale.numerator)
    return StepFunction(tuple(Fraction(b, n) for b in bs), vs, Fraction(rho, n))


def gensym(taken: set, prefix: str) -> str:
    """The first ``prefix<i>`` not in ``taken``, which it joins."""
    i = 1
    while f"{prefix}{i}" in taken:
        i += 1
    name = f"{prefix}{i}"
    taken.add(name)
    return name


def reference_materialize(tree, points, prefix="cut"):
    """Independent reference for ``materialize``: split each source edge at
    its sorted offsets, edges in sorted order, naming the cuts with
    ``gensym``; no rooted search and no tree builder."""
    norm = [normalize_point(tree, pt) for pt in points]
    cuts: dict = {}
    for pt in norm:
        if isinstance(pt, EdgePoint):
            cuts.setdefault((pt.u, pt.v), set()).add(pt.offset)

    taken = set(tree.nodes())
    new_edges = []
    spans = {}
    to_source = {n: Vertex(n) for n in tree.nodes()}
    cut_node = {}

    def record(u, v, length, src, lo, hi):
        new_edges.append((u, v, length))
        key = edge_key(u, v)
        spans[key] = (src, lo, hi) if key == (u, v) else (src, hi, lo)

    for u, v, length in tree.edges():
        offs = sorted(cuts.get((u, v), ()))
        if not offs:
            record(u, v, length, (u, v), Fraction(0), length)
            continue
        prev_node, prev_off = u, Fraction(0)
        for off in offs:
            node = gensym(taken, prefix)
            to_source[node] = EdgePoint(u, v, off)
            cut_node[(u, v, off)] = node
            record(prev_node, node, off - prev_off, (u, v), prev_off, off)
            prev_node, prev_off = node, off
        record(prev_node, v, length - prev_off, (u, v), prev_off, length)

    out = TreeSkeleton(
        tree.basepoint,
        new_edges,
        labels=dict(tree.labels),
        extra_nodes=[n for n in tree.nodes() if tree.degree(n) == 0],
    )
    point_map = {}
    for pt in norm:
        if isinstance(pt, Vertex):
            point_map[pt] = pt.node
        else:
            point_map[pt] = cut_node[(pt.u, pt.v, pt.offset)]
    return Materialization(out, point_map, to_source, spans)


def fw_distance(tree, a, b):
    """Independent path-sum oracle: Floyd-Warshall over the materialized
    vertex graph (different algorithm from the library's LCA walk)."""
    mat = reference_materialize(tree, [a, b], prefix="fw")
    work = mat.tree
    nodes = list(work.nodes())
    idx = {n: i for i, n in enumerate(nodes)}
    inf = None
    n = len(nodes)
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = Fraction(0)
    for u, v, w in work.edges():
        dist[idx[u]][idx[v]] = w
        dist[idx[v]][idx[u]] = w
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik is None:
                continue
            for j in range(n):
                dkj = dist[k][j]
                if dkj is None:
                    continue
                cand = dik + dkj
                if dist[i][j] is None or cand < dist[i][j]:
                    dist[i][j] = cand
    ia = idx[mat.node_for(normalize_point(tree, a))]
    ib = idx[mat.node_for(normalize_point(tree, b))]
    return dist[ia][ib]


def tree_grid(tree, parts_per_edge=4):
    """Vertices plus evenly spaced interior points on every edge."""
    pts = [Vertex(n) for n in tree.nodes()]
    for u, v, length in tree.edges():
        for k in range(1, parts_per_edge):
            pts.append(EdgePoint(u, v, length * Fraction(k, parts_per_edge)))
    return pts


def random_corpus(seed, count, max_nodes=8, radius=Fraction(2)):
    rng = rng_for(seed)
    return [
        random_tree(rng, max_nodes=max_nodes, radius=radius) for _ in range(count)
    ]


def reference_realize_type(tree, q):
    """Independent reference for ``realize_type``: each closest-point class
    realized as its own tree by ``realize_tree``, the trees glued on by
    ``glue_family``, and the points looked up by their labels."""
    require_valid(q)
    if tree != q.context.ambient:
        raise ContextMismatchError("realize_type expects the context's ambient tree")

    classes: dict = {}
    for i, e in enumerate(q.closest):
        classes.setdefault(e, []).append(i)
    attachments = []
    for e, members in classes.items():
        # rows of a, then of each member: offsets, then the pairwise block
        labels = ("a",) + tuple(f"t{i + 1}" for i in members)
        rows = [(0, *(q.offsets[i] for i in members))]
        rows += [(q.offsets[i], *(q.pairwise[i][j] for j in members)) for i in members]
        k_tree = realize_tree(MetricMatrix(labels, tuple(rows)), "a")
        attachments.append((k_tree, Vertex(k_tree.find_label("a")), e))
    glued = glue_family(GlueSpec(base=tree, attachments=tuple(attachments)), q.radius)
    points = []
    for i in range(q.n):
        node = glued.find_label(f"t{i + 1}")
        if node is None:
            raise AssertionError("realized point label vanished")
        points.append(Vertex(node))
    return glued, tuple(points)
