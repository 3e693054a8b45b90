"""Helpers shared by the workloads: the task record, tree files for the CLI,
output fingerprints and checks that do not use the code under test."""

from __future__ import annotations

import hashlib
import io
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

RADIUS = Fraction(2)

# The reference probe's time at the nominal speed of the host the benchmark
# was written on (a shared 2-core Xeon VM, Python 3.11: about the 10th
# percentile of the probe over 20 s; the median there was 8 ms).
REFERENCE_S = 0.005


def reference_probe() -> float:
    """Seconds taken by a fixed pure-Python Fraction loop: the yardstick
    for the host's momentary speed.  It does not use rtrees."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(1, i % 97 + 1) * Fraction(3, 7)
    return time.perf_counter() - t0


@dataclass
class Task:
    """One closed-loop request.

    ``run`` makes the library calls and returns the output; it is the only
    timed part.  ``check(output, outputs)`` runs afterwards, untimed, with
    the outputs of every task of the same round keyed by ``key``.
    """

    key: str
    kind: str
    size: dict
    run: Callable[[], Any]
    check: Callable[[Any, dict], bool]
    extra: dict = field(default_factory=dict)


# -- CLI ---------------------------------------------------------------------------


def cli_call(main, argv: list[str]) -> tuple[int, str, str]:
    """Run ``rtree <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def rat(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def tree_text(tree, radius) -> str:
    """The tree in the documented ``rtree`` text format."""
    lines = [f"radius {rat(radius)}"]
    for node in tree.nodes():
        attrs = " basepoint" if node == tree.basepoint else ""
        attrs += "".join(f" label={name}" for name in tree.labels_of(node))
        lines.append(f"node {node}{attrs}")
    for u, v, length in tree.edges():
        lines.append(f"edge {u} {v} {rat(length)}")
    return "\n".join(lines) + "\n"


def matrix_text(m) -> str:
    n = len(m.labels)
    rows = ["labels " + " ".join(m.labels)]
    for i in range(n - 1):
        rows.append(" ".join(rat(m.entries[i][j]) for j in range(i + 1, n)))
    return "\n".join(rows) + "\n"


def tree_from_text(rt, text: str):
    """Parse the ``rtree`` tree format (as printed by the CLI) into a
    TreeSkeleton; raises ValueError on anything else."""
    basepoint, radius = None, None
    edges, labels, nodes = [], {}, []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "radius":
            radius = Fraction(parts[1])
        elif parts[0] == "node":
            nodes.append(parts[1])
            for attr in parts[2:]:
                if attr == "basepoint":
                    basepoint = parts[1]
                elif attr.startswith("label="):
                    labels.setdefault(parts[1], []).append(attr[6:])
        elif parts[0] == "edge":
            edges.append((parts[1], parts[2], Fraction(parts[3])))
        else:
            raise ValueError(f"unexpected line {raw!r}")
    if basepoint is None or radius is None:
        raise ValueError("tree text without basepoint or radius")
    return rt.TreeSkeleton(basepoint, edges, labels={n: tuple(v) for n, v in labels.items()}, extra_nodes=nodes)


def point_spec(pt) -> str:
    if hasattr(pt, "node"):
        return f"node:{pt.node}"
    return f"edge:{pt.u}:{pt.v}:{rat(pt.offset)}"


# -- sizes -------------------------------------------------------------------------


def height(tree) -> int:
    """Largest number of edges on a path from the basepoint."""
    best, stack, seen = 0, [(tree.basepoint, 0)], {tree.basepoint}
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        for nb in tree.neighbors(node):
            if nb not in seen:
                seen.add(nb)
                stack.append((nb, depth + 1))
    return best


def grid_count(tree, mesh) -> int:
    """Vertices plus points spaced ``mesh`` strictly inside every edge."""
    count = len(tree.nodes())
    for _u, _v, length in tree.edges():
        count += -(-length // mesh) - 1
    return int(count)


def tree_size(tree, **more) -> dict:
    return {"nodes": len(tree.nodes()), "edges": len(tree.edges()), "height": height(tree), **more}


# -- checks that do not use the code under test ------------------------------------


def first_four_point_witness(entries, pair):
    """Lexicographically first violating quadruple of a tree metric whose
    only changed entry is ``pair``.

    Every quadruple of the unchanged metric satisfies the condition, so a
    violation must read the changed entry: its two indices sit at two
    different positions of the quadruple.  Enumerating only those keeps
    the scan at O(n^2) instead of the library's O(n^4).
    """
    n = len(entries)
    i, j = pair
    cands = set()
    for a in (i, j):
        b = j if a == i else i
        for pa in range(4):
            for pb in range(4):
                if pa == pb:
                    continue
                rest = [p for p in range(4) if p not in (pa, pb)]
                for u in range(n):
                    for w in range(n):
                        q = [0, 0, 0, 0]
                        q[pa], q[pb], q[rest[0]], q[rest[1]] = a, b, u, w
                        cands.add(tuple(q))
    e = entries
    for x, y, z, t in sorted(cands):
        lhs = e[x][y] + e[z][t]
        rhs = max(e[x][z] + e[y][t], e[y][z] + e[x][t])
        if lhs > rhs:
            return (x, y, z, t), lhs, rhs
    return None


def same_witness(w, ref, labels) -> bool:
    return (
        ref is not None
        and tuple(w.indices) == ref[0]
        and tuple(w.labels) == tuple(labels[k] for k in ref[0])
        and w.lhs == ref[1]
        and w.rhs == ref[2]
    )


# -- fingerprints for values recorded at a known-good commit -----------------------


def canon(obj, rt) -> str:
    """Canonical text of an output.  Trees are described up to renaming of
    unlabeled nodes: size, sorted edge lengths and labeled heights."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return repr(obj)
    if isinstance(obj, Fraction):
        return rat(obj)
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(canon(x, rt) for x in obj) + ")"
    if isinstance(obj, rt.TreeSkeleton):
        lengths = sorted(length for _u, _v, length in obj.edges())
        labeled = sorted(
            (name, obj.dist_to_basepoint(n)) for n in obj.nodes() for name in obj.labels_of(n)
        )
        return f"T{len(obj.nodes())}:{canon(lengths, rt)}:{canon(labeled, rt)}"
    if isinstance(obj, (rt.Vertex, rt.EdgePoint)):
        return rt.format_point(obj)
    if isinstance(obj, rt.CertifiedValue):
        return f"[{rat(obj.lower)},{rat(obj.upper)}]"
    if isinstance(obj, rt.FourPointWitness):
        return f"W{obj.indices}:{rat(obj.lhs)}>{rat(obj.rhs)}"
    if isinstance(obj, rt.FourPointViolation):
        return "reject:" + canon(obj.witness, rt)
    if isinstance(obj, rt.NTypeDescriptor):
        return "Q" + canon((obj.closest, obj.offsets, obj.pairwise), rt)
    if isinstance(obj, rt.IndependenceVerdict):
        return f"I{obj.independent}:" + canon(obj.witness, rt)
    if isinstance(obj, rt.RtAxiomsReport):
        return obj.summary()
    if isinstance(obj, rt.SpannedSubtree):
        return "S" + canon((sorted(obj.vertex_cover), sorted(obj.edge_cover.items())), rt)
    if isinstance(obj, rt.ValidationReport):
        return f"V{obj.ok}"
    if isinstance(obj, rt.Materialization):
        return "M" + canon(obj.tree, rt)
    if isinstance(obj, rt.MetricMatrix):
        return "X" + canon((obj.labels, obj.entries), rt)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def fingerprint(obj, rt) -> str:
    return hashlib.sha256(canon(obj, rt).encode()).hexdigest()[:16]
