"""Command-line front end.

Subcommands: ``check``, ``eval``, ``realize``, ``matrix``, ``amalgamate``,
``type {of,eq,dist,realize,principal}``, ``indep``, ``generate``.

Exit codes: 0 for success or a true verdict, 1 for false verdicts and
validation failures (witnesses go to stderr as ``key=value`` lines), 2 for
usage or parse errors.  All numbers print as exact rationals.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .rationals import as_rat, format_rat
from .skeleton import (
    EdgePoint,
    PointRef,
    SkeletonError,
    TreeSkeleton,
    Vertex,
    distance,
    format_point,
    normalize_point,
    validate,
)
from .geometry import spanned_subtree
from . import treeio
from .matrices import (
    FourPointViolation,
    MetricMatrix,
    delta_hyperbolicity,
    realize_tree,
    tree_to_matrix,
)
from .formulas import check_rt_axioms, eval_quantified, free_vars, parse_formula
from .amalgams import SubtreeMap, amalgamate
from .typespace import (
    ContextMismatchError,
    InconsistentDescriptorError,
    NTypeDescriptor,
    OneTypeDescriptor,
    is_principal,
    one_type_distance,
    realize_type,
    type_distance_exact,
    type_distance_search,
    type_of,
    types_equal,
    validate_descriptor,
)
from .independence import IndependenceQuery, is_star_independent
from .generators import (
    GeneratorArgumentError,
    GeneratorConfig,
    au_sample_ball,
    build_primitive,
    degree_family_tree,
    rb_extend,
    tripod,
)
from .deficiency import psi_at, rb_deficiency


class CliError(Exception):
    """Usage-level error: exits with status 2."""


def _rat_arg(text: str, what: str) -> Fraction:
    """An exact rational from the command line or the environment."""
    try:
        return as_rat(text)
    except ValueError as exc:
        raise CliError(f"{what}: {exc}")


def _radius_arg(text: str) -> Fraction:
    """The value of ``--radius``: an exact rational that is not negative."""
    radius = _rat_arg(text, "--radius")
    if radius < 0:
        raise CliError(f"--radius: {text} is negative")
    return radius


def _default_mesh(args, radius: Fraction) -> Fraction:
    if args.mesh is not None:
        mesh = _rat_arg(args.mesh, "--mesh")
    elif os.environ.get("RTREE_MESH"):
        mesh = _rat_arg(os.environ["RTREE_MESH"], "RTREE_MESH")
    else:
        mesh = radius / 8
    if mesh <= 0:
        raise CliError("mesh must be positive")
    return mesh


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}")


def _load_doc(path: str) -> treeio.TreeDocument:
    try:
        return treeio.parse_tree(_read_text(path))
    except treeio.FormatError as exc:
        raise CliError(f"{path}: {exc}")


def _load_matrix(path: str) -> MetricMatrix:
    try:
        labels, entries = treeio.parse_matrix_text(_read_text(path))
        return MetricMatrix(labels, entries)
    except ValueError as exc:  # a FormatError, or entries that are not a metric
        raise CliError(f"{path}: {exc}")


def _resolve_point(doc: treeio.TreeDocument, spec: str) -> PointRef:
    """Point syntax: a declared point name, a node id, ``node:<id>``,
    ``edge:<u>:<v>:<offset>``, or a label on exactly one node."""
    if spec in doc.points:
        return doc.points[spec]
    try:
        if spec.startswith("node:"):
            return normalize_point(doc.tree, Vertex(spec[len("node:"):]))
        if spec.startswith("edge:"):
            parts = spec.split(":")
            if len(parts) != 4:
                raise CliError(f"bad edge point spec {spec!r}")
            return normalize_point(
                doc.tree, EdgePoint(parts[1], parts[2], _rat_arg(parts[3], spec))
            )
    except SkeletonError as exc:  # no such node, edge or offset: a usage error
        raise CliError(str(exc))
    if doc.tree.has_node(spec):
        return Vertex(spec)
    nodes = sorted(x for x, names in doc.tree.labels.items() if spec in names)
    if len(nodes) > 1:
        raise CliError(f"label {spec!r} is on more than one node: {', '.join(nodes)}")
    if nodes:
        return Vertex(nodes[0])
    raise CliError(f"unknown point {spec!r}")


def _point_names(specs: str, what: str) -> list[str]:
    """The comma-separated names of an option; an empty name is an error."""
    names = specs.split(",")
    for i, name in enumerate(names):
        if not name:
            raise CliError(f"{what}: name {i + 1} of {len(names)} is empty")
    return names


def _resolve_points(
    doc: treeio.TreeDocument, specs: Optional[str], what: str, empty_set: bool = False
) -> tuple[PointRef, ...]:
    """The points an option names; ``''`` is the empty set if ``empty_set``."""
    if empty_set and not specs:
        return ()
    return tuple(_resolve_point(doc, s) for s in _point_names(specs, what))


def _emit(text: str = "", err: bool = False) -> None:
    print(text, file=sys.stderr if err else sys.stdout)


def _write_output(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -------------------------------------------------------------


def _cmd_check(args) -> int:
    doc = _load_doc(args.tree)
    radius = _radius_arg(args.radius) if args.radius is not None else doc.radius
    report = validate(doc.tree, radius)
    for v in report.violations:
        _emit(f"violation={v.kind} detail={v.detail}", err=True)
    if any(v.kind != "radius_exceeded" for v in report.violations):
        _emit("invalid")
        return 1
    axioms = check_rt_axioms(doc.tree, radius, _default_mesh(args, radius))
    _emit(axioms.summary())
    return 0 if axioms.ok else 1


def _cmd_eval(args) -> int:
    doc = _load_doc(args.tree)
    try:
        formula = parse_formula(args.formula)
    except ValueError as exc:
        raise CliError(str(exc))
    val = {}
    for item in args.at or ():
        name, _, spec = item.partition("=")
        if not name or not spec:
            raise CliError(f"bad --at binding {item!r}; use name=point")
        if name == "p":
            raise CliError("--at: name 'p' is the basepoint and cannot be bound")
        if name in val:
            raise CliError(f"--at: name {name!r} is repeated")
        val[name] = _resolve_point(doc, spec)
    unbound = free_vars(formula) - set(val)
    if unbound:
        raise CliError(f"formula has unbound points: {', '.join(sorted(unbound))}; bind them with --at")
    mesh = _default_mesh(args, doc.radius)
    result = eval_quantified(doc.tree, formula, val, mesh)
    _emit(str(result))
    return 0


def _cmd_matrix(args) -> int:
    doc = _load_doc(args.tree)
    names = _point_names(args.points, "--points")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise CliError(f"--points: name {name!r} is repeated")
    m = tree_to_matrix(doc.tree, [_resolve_point(doc, name) for name in names], labels=names)
    _write_output(treeio.serialize_matrix_text(m.labels, m.entries), args.output)
    return 0


def _cmd_realize(args) -> int:
    m = _load_matrix(args.matrix)
    if args.basepoint is not None and args.basepoint not in m.labels:
        raise CliError(f"unknown basepoint label {args.basepoint!r}")
    try:
        tree = realize_tree(m, args.basepoint)
    except FourPointViolation as exc:
        w = exc.witness
        _emit(
            "violation=four_point "
            f"quad={','.join(w.labels)} lhs={format_rat(w.lhs)} rhs={format_rat(w.rhs)}",
            err=True,
        )
        return 1
    radius = max(tree.dist_to_basepoint(n) for n in tree.nodes())
    _write_output(treeio.serialize_tree(tree, radius), args.output)
    return 0


def _cmd_delta(args) -> int:
    _emit(format_rat(delta_hyperbolicity(_load_matrix(args.matrix))))
    return 0


def _cmd_amalgamate(args) -> int:
    left = _load_doc(args.left)
    right = _load_doc(args.right)
    radius = _radius_arg(args.radius)
    pairs = []
    for lineno, line in enumerate(_read_text(args.shared).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "pair" or len(parts) != 3:
            raise CliError(f"{args.shared}:{lineno}: expected 'pair <left> <right>'")
        pairs.append((_resolve_point(left, parts[1]), _resolve_point(right, parts[2])))
    shared = SubtreeMap(source=left.tree, target=right.tree, pairs=tuple(pairs))
    amalgam, _g1, _g2 = amalgamate(left.tree, right.tree, shared, radius)
    _write_output(treeio.serialize_tree(amalgam, radius), args.output)
    return 0


def _descriptor_from_file(path: str) -> NTypeDescriptor:
    try:
        doc, radius, closest, offsets, rho = treeio.parse_descriptor_text(
            _read_text(path), base_dir=os.path.dirname(path) or "."
        )
    except treeio.FormatError as exc:
        raise CliError(f"{path}: {exc}")
    ctx = spanned_subtree(doc.tree, list(doc.points.values()), adjoin_basepoint=True)
    return NTypeDescriptor(
        context=ctx,
        radius=radius,
        closest=closest,
        offsets=offsets,
        pairwise=tuple(tuple(row) for row in rho),
    )


def _emit_violation(check) -> None:
    _emit(f"violation={check.kind} detail={check.detail}", err=True)


def _report_violation(q: NTypeDescriptor) -> bool:
    """Print the descriptor's violation on stderr, if it has one."""
    check = validate_descriptor(q)
    if check is not True:
        _emit_violation(check)
    return check is not True


def _cmd_type(args) -> int:
    if args.type_cmd == "of":
        doc = _load_doc(args.tree)
        A = _resolve_points(doc, args.params, "--params", empty_set=True)
        b = _resolve_points(doc, args.points, "--points")
        q = type_of(doc.tree, A, b, doc.radius)
        for i, (e, s) in enumerate(zip(q.closest, q.offsets), start=1):
            _emit(f"closest {i} {format_point(e)}")
            _emit(f"offset {i} {format_rat(s)}")
        for i in range(q.n):
            for j in range(i + 1, q.n):
                _emit(f"pair {i + 1} {j + 1} {format_rat(q.pairwise[i][j])}")
        return 0
    if args.type_cmd == "dist":
        if args.ctx == "empty":
            if args.s is None or args.t is None:
                raise CliError("type dist --ctx empty needs --s and --t")
            s, t = _rat_arg(args.s, "--s"), _rat_arg(args.t, "--t")
            radius = _radius_arg(args.radius) if args.radius is not None else max(s, t)
            ctx = spanned_subtree(
                TreeSkeleton("p", (), extra_nodes=["p"]), [], adjoin_basepoint=True
            )
            q1, q2 = (OneTypeDescriptor(ctx, radius, Vertex("p"), x) for x in (s, t))
            _emit(format_rat(one_type_distance(q1, q2)))
            return 0
        if not args.q1 or not args.q2:
            raise CliError("type dist needs --ctx empty or both --q1 and --q2")
        q1 = _descriptor_from_file(args.q1)
        q2 = _descriptor_from_file(args.q2)
        if _report_violation(q1) or _report_violation(q2):
            return 1
        if args.exact:
            value = type_distance_exact(q1, q2)
            if value is None:
                raise CliError("--exact supports descriptors of arity at most 3")
            _emit(format_rat(value))
            return 0
        result = type_distance_search(q1, q2, _default_mesh(args, q1.radius))
        if result.truncated:
            _emit("truncated=1", err=True)
        _emit(str(result))
        return 0
    if args.type_cmd == "eq":
        q1 = _descriptor_from_file(args.q1)
        q2 = _descriptor_from_file(args.q2)
        if _report_violation(q1) or _report_violation(q2):
            return 1
        verdict = types_equal(q1, q2)
        _emit("equal" if verdict else "different")
        return 0 if verdict else 1
    if args.type_cmd == "realize":
        q = _descriptor_from_file(args.descriptor)
        try:
            tree, points = realize_type(q.context.ambient, q)
        except InconsistentDescriptorError as exc:
            _emit_violation(exc.violation)
            return 1
        doc_points = {f"b{i + 1}": pt for i, pt in enumerate(points)}
        _write_output(treeio.serialize_tree(tree, q.radius, doc_points), args.output)
        return 0
    if args.type_cmd == "principal":
        q = _descriptor_from_file(args.descriptor)
        if _report_violation(q):
            return 1
        verdict = is_principal(q)
        _emit("principal" if verdict else "non-principal")
        return 0 if verdict else 1
    raise CliError(f"unknown type subcommand {args.type_cmd!r}")


def _cmd_indep(args) -> int:
    doc = _load_doc(args.tree)
    query = IndependenceQuery(
        tree=doc.tree,
        A=_resolve_points(doc, args.A, "--A"),
        B=_resolve_points(doc, args.B, "--B", empty_set=True),
        C=_resolve_points(doc, args.C, "--C", empty_set=True),
    )
    verdict = is_star_independent(query)
    if verdict.independent:
        _emit("independent")
        return 0
    a, big, small = verdict.witness
    _emit(
        f"witness={format_point(a)} "
        f"proj_BC={format_point(big)} proj_C={format_point(small)}",
        err=True,
    )
    _emit("dependent")
    return 1


def _cmd_generate(args) -> int:
    radius = _radius_arg(args.radius)
    if args.family == "rb":
        base = tripod(radius / 2, radius / 2, radius / 2)
        tree = rb_extend(base, radius, args.depth)
    elif args.family == "degrees":
        if not args.degrees:
            raise CliError("--degrees is required for the degrees family")
        try:
            degrees = tuple(int(x) for x in args.degrees.split(","))
        except ValueError as exc:
            raise CliError(f"--degrees: {exc}")
        tree = degree_family_tree(GeneratorConfig(args.seed, args.depth, radius, degrees))
    elif args.family == "universal":
        _fs, tree = au_sample_ball(args.mu, args.count, radius, args.seed)
    elif args.family == "primitive":
        params = [_rat_arg(x, "--params") for x in args.params.split(",")] if args.params else []
        tree = build_primitive(args.kind, params)
    else:
        raise CliError(f"unknown family {args.family!r}")
    report = validate(tree, radius)
    if not report.ok:
        for v in report.violations:
            _emit(f"violation={v.kind} detail={v.detail}", err=True)
        return 1
    _write_output(treeio.serialize_tree(tree, radius), args.output)
    return 0


def _cmd_psi(args) -> int:
    doc = _load_doc(args.tree)
    radius = _radius_arg(args.radius) if args.radius is not None else doc.radius
    if args.at is not None:
        pt = _resolve_point(doc, args.at)
        if distance(doc.tree, pt, Vertex(doc.tree.basepoint)) > radius:
            raise CliError("point lies outside the radius bound")
        _emit(format_rat(psi_at(doc.tree, pt, radius)))
    else:
        _emit(format_rat(rb_deficiency(doc.tree, radius)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared: each parse fills a fresh
    namespace, and ``--at`` (append, default ``None``) starts a fresh list."""
    parser = argparse.ArgumentParser(
        prog="rtree",
        description="Exact operations on finitely spanned pointed real trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a tree and evaluate the three axioms")
    p.add_argument("--tree", required=True)
    p.add_argument("--radius")
    p.add_argument("--mesh")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", help="evaluate a formula on a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--mesh")
    p.add_argument("--at", action="append", help="bind a free point: name=point")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("matrix", help="pairwise distance matrix of named points")
    p.add_argument("--tree", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("realize", help="realize an additive matrix as a tree")
    p.add_argument("--matrix", required=True)
    p.add_argument("--basepoint")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("delta", help="Gromov hyperbolicity defect of a matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("amalgamate", help="amalgamate two trees over a shared subtree")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--shared", required=True)
    p.add_argument("--radius", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_amalgamate)

    p = sub.add_parser("type", help="type calculus")
    tsub = p.add_subparsers(dest="type_cmd", required=True)
    t = tsub.add_parser("of")
    t.add_argument("--tree", required=True)
    t.add_argument("--params")
    t.add_argument("--points", required=True)
    t.set_defaults(func=_cmd_type)
    t = tsub.add_parser("dist")
    t.add_argument("--ctx")
    t.add_argument("--s")
    t.add_argument("--t")
    t.add_argument("--radius")
    t.add_argument("--q1")
    t.add_argument("--q2")
    t.add_argument("--mesh")
    t.add_argument("--exact", action="store_true", help="the exact distance (n <= 3)")
    t.set_defaults(func=_cmd_type)
    t = tsub.add_parser("eq")
    t.add_argument("--q1", required=True)
    t.add_argument("--q2", required=True)
    t.set_defaults(func=_cmd_type)
    t = tsub.add_parser("realize")
    t.add_argument("--descriptor", required=True)
    t.add_argument("-o", "--output")
    t.set_defaults(func=_cmd_type)
    t = tsub.add_parser("principal")
    t.add_argument("--descriptor", required=True)
    t.set_defaults(func=_cmd_type)

    p = sub.add_parser("indep", help="independence query A indep B over C")
    p.add_argument("--tree", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)
    p.set_defaults(func=_cmd_indep)

    p = sub.add_parser("generate", help="generate a tree family member")
    p.add_argument("family", choices=["rb", "degrees", "universal", "primitive"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--radius", required=True)
    p.add_argument("--degrees")
    p.add_argument("--mu", type=int, default=3)
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--kind", default="tripod")
    p.add_argument("--params")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("psi", help="branching deficiency at a point or its sup")
    p.add_argument("--tree", required=True)
    p.add_argument("--radius")
    p.add_argument("--at")
    p.set_defaults(func=_cmd_psi)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, ContextMismatchError, GeneratorArgumentError) as exc:
        _emit(f"error: {exc}", err=True)
        return 2
    except (ValueError, KeyError) as exc:
        _emit(f"error: {exc}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
