"""Line-oriented text formats for trees, metric matrices and type data.

Tree format (UTF-8, ``#`` comments)::

    node <id>
    node <id> basepoint
    node <id> label=<name>
    edge <id_u> <id_v> <len>
    point <name> node <id>
    point <name> edge <id_u> <id_v> <offset>
    radius <len>

Lengths and offsets are exact rationals (``3`` or ``3/2``); floating-point
literals are rejected.  ``radius`` appears exactly once and is not negative.
Repeated ``node`` lines accumulate labels on the same node.

Matrix format: first line ``labels <n1> <n2> ...``, then the strict upper
triangle row by row (row ``i`` holds the entries ``(i, i+1) .. (i, n-1)``).

Descriptor format::

    context <tree-file>
    radius <rat>            (optional; defaults to the context file's radius)
    closest <i> <point>
    offset <i> <rat>
    pair <i> <j> <rat>

where the indices run ``1..n`` and ``<point>`` is ``node <id>`` or
``edge <id_u> <id_v> <offset>``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .rationals import as_rat, format_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    TreeSkeleton,
    Vertex,
    normalize_point,
)


class FormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _radius(text: str) -> Fraction:
    """The value of a ``radius`` line: an exact rational that is not negative."""
    radius = as_rat(text)
    if radius < 0:
        raise ValueError(f"radius {text} is negative")
    return radius


@dataclass
class TreeDocument:
    tree: TreeSkeleton
    radius: Fraction
    points: dict[str, PointRef]


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line.split()


def parse_tree(text: str) -> TreeDocument:
    nodes: list[str] = []
    basepoint: Optional[str] = None
    labels: dict[str, list[str]] = {}
    edges: list[tuple[str, str, Fraction]] = []
    raw_points: list[tuple[int, str, list[str]]] = []
    radius: Optional[Fraction] = None

    for lineno, parts in _content_lines(text):
        kind = parts[0]
        try:
            if kind == "node":
                if len(parts) < 2:
                    raise FormatError("node needs an id", lineno)
                node = parts[1]
                nodes.append(node)
                for extra in parts[2:]:
                    if extra == "basepoint":
                        if basepoint is not None and basepoint != node:
                            raise FormatError("multiple basepoints", lineno)
                        basepoint = node
                    elif extra.startswith("label="):
                        labels.setdefault(node, []).append(extra[len("label="):])
                    else:
                        raise FormatError(f"unknown node attribute {extra!r}", lineno)
            elif kind == "edge":
                if len(parts) != 4:
                    raise FormatError("edge needs two node ids and a length", lineno)
                edges.append((parts[1], parts[2], as_rat(parts[3])))
            elif kind == "point":
                if len(parts) < 3:
                    raise FormatError("point needs a name and a location", lineno)
                raw_points.append((lineno, parts[1], parts[2:]))
            elif kind == "radius":
                if len(parts) != 2:
                    raise FormatError("radius needs one value", lineno)
                if radius is not None:
                    raise FormatError("radius given twice", lineno)
                radius = _radius(parts[1])
            else:
                raise FormatError(f"unknown directive {kind!r}", lineno)
        except (ValueError, TypeError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(str(exc), lineno) from exc

    if radius is None:
        raise FormatError("missing radius line")
    if basepoint is None:
        raise FormatError("no node marked basepoint")

    tree = TreeSkeleton(
        basepoint,
        edges,
        labels={n: tuple(ns) for n, ns in labels.items()},
        extra_nodes=nodes,
    )

    points: dict[str, PointRef] = {}
    for lineno, name, loc in raw_points:
        try:
            points[name] = parse_point(tree, loc)
        except (ValueError, TypeError) as exc:
            raise FormatError(str(exc), lineno) from exc
    return TreeDocument(tree=tree, radius=radius, points=points)


def parse_point(tree: TreeSkeleton, loc: list[str]) -> PointRef:
    """Parse a point location given as ``["node", id]`` or
    ``["edge", u, v, offset]``."""
    if loc[0] == "node" and len(loc) == 2:
        return normalize_point(tree, Vertex(loc[1]))
    if loc[0] == "edge" and len(loc) == 4:
        return normalize_point(tree, EdgePoint(loc[1], loc[2], as_rat(loc[3])))
    raise FormatError(f"bad point location: {' '.join(loc)}")


def serialize_tree(
    tree: TreeSkeleton, radius, points: Optional[dict[str, PointRef]] = None
) -> str:
    lines = [f"radius {format_rat(as_rat(radius))}"]
    for node in tree.nodes():
        attrs = []
        if node == tree.basepoint:
            attrs.append("basepoint")
        names = tree.labels_of(node)
        if names:
            attrs.append(f"label={names[0]}")
        lines.append(" ".join(["node", node] + attrs))
        for name in names[1:]:
            lines.append(f"node {node} label={name}")
    for u, v, w in tree.edges():
        lines.append(f"edge {u} {v} {format_rat(w)}")
    for name in sorted(points or {}):
        pt = normalize_point(tree, points[name])
        if isinstance(pt, Vertex):
            lines.append(f"point {name} node {pt.node}")
        else:
            lines.append(f"point {name} edge {pt.u} {pt.v} {format_rat(pt.offset)}")
    return "\n".join(lines) + "\n"


def load_tree(path: str) -> TreeDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


# -- metric matrices -------------------------------------------------------------


def parse_matrix_text(text: str) -> tuple[tuple[str, ...], list[list[Fraction]]]:
    lines = list(_content_lines(text))
    if not lines or lines[0][1][0] != "labels":
        raise FormatError("matrix text must start with a labels line")
    labels = tuple(lines[0][1][1:])
    if not labels:
        raise FormatError("labels line names no points", lines[0][0])
    n = len(labels)
    entries = [[Fraction(0)] * n for _ in range(n)]
    rows = lines[1:]
    expected = max(0, n - 1)
    if len(rows) != expected:
        raise FormatError(
            f"expected {expected} triangle rows for {n} labels, got {len(rows)}"
        )
    for i, (lineno, parts) in enumerate(rows):
        if len(parts) != n - 1 - i:
            raise FormatError(
                f"row for {labels[i]} needs {n - 1 - i} entries", lineno
            )
        for k, token in enumerate(parts):
            j = i + 1 + k
            try:
                val = as_rat(token)
            except (ValueError, TypeError) as exc:
                raise FormatError(str(exc), lineno) from exc
            entries[i][j] = val
            entries[j][i] = val
    return labels, entries


def serialize_matrix_text(labels, entries) -> str:
    lines = ["labels " + " ".join(labels)]
    n = len(labels)
    for i in range(n - 1):
        lines.append(" ".join(format_rat(entries[i][j]) for j in range(i + 1, n)))
    return "\n".join(lines) + "\n"


# -- type descriptors -------------------------------------------------------------


def _index(text: str) -> int:
    i = int(text)
    if i < 1:
        raise ValueError(f"index {i} is below 1")
    return i


def parse_descriptor_text(text: str, base_dir: str = "."):
    """Parse descriptor data; returns ``(tree_doc, radius, closest, offsets,
    pairs)`` with 1-based indices resolved into dense tuples."""
    tree_doc: Optional[TreeDocument] = None
    radius: Optional[Fraction] = None
    closest: dict[int, PointRef] = {}
    offsets: dict[int, Fraction] = {}
    pairs: dict[tuple[int, int], Fraction] = {}

    for lineno, parts in _content_lines(text):
        kind = parts[0]
        try:
            if kind == "context":
                if len(parts) != 2:
                    raise FormatError("context needs a tree file path", lineno)
                try:
                    tree_doc = load_tree(os.path.join(base_dir, parts[1]))
                except OSError as exc:
                    raise FormatError(
                        f"cannot read context {parts[1]}: {exc.strerror}", lineno
                    ) from exc
            elif kind == "radius":
                radius = _radius(parts[1])
            elif kind == "closest":
                if tree_doc is None:
                    raise FormatError("context must come before closest", lineno)
                closest[_index(parts[1])] = parse_point(tree_doc.tree, parts[2:])
            elif kind == "offset":
                offsets[_index(parts[1])] = as_rat(parts[2])
            elif kind == "pair":
                i, j = _index(parts[1]), _index(parts[2])
                pairs[(min(i, j), max(i, j))] = as_rat(parts[3])
            else:
                raise FormatError(f"unknown directive {kind!r}", lineno)
        except (ValueError, TypeError, IndexError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(str(exc), lineno) from exc

    if tree_doc is None:
        raise FormatError("missing context line")
    if radius is None:
        radius = tree_doc.radius
    n = max(list(closest) + list(offsets) + [j for _, j in pairs] or [0])
    if n == 0 or set(closest) != set(range(1, n + 1)) or set(offsets) != set(range(1, n + 1)):
        raise FormatError("closest/offset lines must cover indices 1..n")
    closest_seq = tuple(closest[i] for i in range(1, n + 1))
    offset_seq = tuple(offsets[i] for i in range(1, n + 1))
    rho = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), val in pairs.items():
        rho[i - 1][j - 1] = val
        rho[j - 1][i - 1] = val
    return tree_doc, radius, closest_seq, offset_seq, rho
