import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rtrees import CertifiedValue, cli
from rtrees.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


TRIPOD_TEXT = """\
radius 2
node p basepoint
node y
node a label=a
node b label=b
edge p y 1
edge y a 1
edge y b 1
point a node a
point b node b
point m edge p y 1/2
"""


@pytest.fixture
def tripod_file(tmp_path):
    path = tmp_path / "tripod.tree"
    path.write_text(TRIPOD_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_pass(tripod_file, capsys):
    code, out, err = run(capsys, "check", "--tree", tripod_file, "--radius", "2")
    assert code == 0
    assert out.strip() == "axiom1=2<=2 axiom2=0 axiom3=0"


def test_check_radius_failure(tripod_file, capsys):
    code, out, err = run(capsys, "check", "--tree", tripod_file, "--radius", "3/2")
    assert code == 1
    assert "axiom1=2>3/2" in out
    assert "radius_exceeded" in err


def test_check_structural_failure(tmp_path, capsys):
    path = tmp_path / "bad.tree"
    path.write_text("radius 1\nnode p basepoint\nnode q\nedge p q 0\n")
    code, out, err = run(capsys, "check", "--tree", str(path))
    assert code == 1
    assert "non_positive_edge" in err


@pytest.mark.parametrize("length", ["-1", "0"])
@pytest.mark.parametrize(
    "argv", [["matrix", "--points", "p,a"], ["psi"], ["eval", "--formula", "sup x. d(x,p)"]]
)
def test_non_positive_edge_is_an_error(tmp_path, capsys, length, argv):
    path = tmp_path / "bad.tree"
    path.write_text(f"radius 2\nnode p basepoint\nnode q\nnode a\nedge p q 1\nedge q a {length}\n")
    code, out, err = run(capsys, *argv, "--tree", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: edge a-q has length {length}\n"


def test_eval(tripod_file, capsys):
    code, out, _ = run(capsys, "eval", "--tree", tripod_file, "--formula", "sup x. d(x,p)")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(
        capsys, "eval", "--tree", tripod_file, "--formula", "d(u,v)",
        "--at", "u=a", "--at", "v=m",
    )
    assert code == 0 and out.strip() == "3/2"


def test_eval_parse_error_exits_2(tripod_file, capsys):
    code, _, err = run(capsys, "eval", "--tree", tripod_file, "--formula", "d(x,")
    assert code == 2 and "error" in err


def test_matrix_realize_round_trip(tripod_file, tmp_path, capsys):
    mat_path = str(tmp_path / "m.mat")
    code, _, _ = run(
        capsys, "matrix", "--tree", tripod_file, "--points", "p,a,b", "-o", mat_path
    )
    assert code == 0
    code, out, _ = run(capsys, "realize", "--matrix", mat_path, "--basepoint", "p")
    assert code == 0
    assert "radius 2" in out
    assert "edge" in out


def test_realize_label_named_like_a_steiner_node(tmp_path, capsys):
    mat = tmp_path / "clash.mat"
    mat.write_text("labels p a b s1\n2 2 3\n2 3\n1\n")
    code, out, err = run(capsys, "realize", "--matrix", str(mat))
    assert code == 0 and err == ""
    assert "label=s1" in out


def test_realize_rejects_non_additive(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("labels x y z t\n2 1 1\n1 1\n2\n")
    code, out, err = run(capsys, "realize", "--matrix", str(bad))
    assert code == 1
    assert "four_point" in err and "lhs=4" in err


@pytest.mark.parametrize("name", ["zz", ""])
@pytest.mark.parametrize(
    "text", ["labels a b\n1\n", "labels x y z t\n2 1 1\n1 1\n2\n"], ids=["tree", "non-additive"]
)
def test_realize_basepoint_naming_no_label_is_a_usage_error(tmp_path, capsys, name, text):
    # checked before the realization, so also before a four-point verdict
    mat = _write(tmp_path, "m.mat", text)
    code, out, err = run(capsys, "realize", "--matrix", mat, "--basepoint", name)
    assert (code, out, err) == (2, "", f"error: unknown basepoint label {name!r}\n")


def test_type_dist_empty_context(capsys):
    code, out, _ = run(capsys, "type", "dist", "--ctx", "empty", "--s", "2", "--t", "1/2")
    assert code == 0 and out.strip() == "3/2"


def test_type_dist_empty_context_checks_offsets(capsys):
    # the descriptor check, reported as an error line with exit code 1
    code, out, err = run(
        capsys, "type", "dist", "--ctx", "empty", "--s", "3", "--t", "1", "--radius", "1"
    )
    assert code == 1 and out == ""
    assert "error: offset_bound: offset s_1=3 outside [0, 1]" in err
    code, out, err = run(capsys, "type", "dist", "--ctx", "empty", "--s", "-1", "--t", "1")
    assert code == 1 and "offset_bound" in err


DOT_TEXT = "radius 2\nnode p basepoint\n"


def _descriptor_text(offsets, pairs):
    lines = ["context dot.tree"]
    lines += [f"closest {i} node p" for i in range(1, len(offsets) + 1)]
    lines += [f"offset {i} {s}" for i, s in enumerate(offsets, start=1)]
    lines += [f"pair {i} {j} {d}" for (i, j), d in pairs.items()]
    return "\n".join(lines) + "\n"


def _dist_files(tmp):
    """Two unit arms at p, against collinear offsets (1, 2); and a 4-type."""
    _write(tmp, "dot.tree", DOT_TEXT)
    arms = _write(tmp, "arms.desc", _descriptor_text([1, 1], {(1, 2): 2}))
    line = _write(tmp, "line.desc", _descriptor_text([1, 2], {(1, 2): 1}))
    star4 = _write(
        tmp, "star4.desc",
        _descriptor_text([1] * 4, {(i, j): 2 for i in range(1, 5) for j in range(i + 1, 5)}),
    )
    return arms, line, star4


def _dist_argv(tmp, *extra):
    arms, line, _ = _dist_files(tmp)
    return ["type", "dist", "--q1", arms, "--q2", line, *extra]


def test_type_dist_exact(tmp_path, capsys):
    code, out, err = run(capsys, *_dist_argv(tmp_path, "--exact"))
    assert (code, out, err) == (0, "2\n", "")
    code, out, err = run(capsys, *_dist_argv(tmp_path, "--mesh", "1/8"))
    assert (code, out, err) == (0, "[3/2, 2]\n", "")


def test_type_dist_reports_truncation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "type_distance_search",
        lambda q1, q2, mesh: CertifiedValue(Fraction(1), Fraction(3), mesh, truncated=True),
    )
    code, out, err = run(capsys, *_dist_argv(tmp_path))
    assert (code, out, err) == (0, "[1, 3]\n", "truncated=1\n")


def test_malformed_mesh_env_var_exits_2(tripod_file, capsys, monkeypatch):
    for value in ("x", "0", "-1/4"):
        monkeypatch.setenv("RTREE_MESH", value)
        code, out, err = run(capsys, "check", "--tree", tripod_file)
        assert code == 2 and out == "" and err.startswith("error:")


def test_empty_option_values_are_usage_errors(tripod_file, tmp_path, capsys, monkeypatch):
    # an option given '' is given: it is read, not replaced by its default
    radius = "--radius: not an exact rational literal: ''"
    mesh = "--mesh: not an exact rational literal: ''"
    for argv, message in (
        (["psi", "--tree", tripod_file, "--at", ""], "unknown point ''"),
        (["psi", "--tree", tripod_file, "--radius", ""], radius),
        (["check", "--tree", tripod_file, "--radius", ""], radius),
        (["type", "dist", "--ctx", "empty", "--s", "1", "--t", "1", "--radius", ""], radius),
        (["check", "--tree", tripod_file, "--mesh", ""], mesh),
        (["eval", "--tree", tripod_file, "--formula", "sup x. d(x,p)", "--mesh", ""], mesh),
        (_dist_argv(tmp_path, "--mesh", ""), mesh),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    # an empty RTREE_MESH still means unset
    monkeypatch.setenv("RTREE_MESH", "")
    assert run(capsys, "check", "--tree", tripod_file) == (0, "axiom1=2<=2 axiom2=0 axiom3=0\n", "")


def test_indep_verdicts(tripod_file, capsys):
    code, out, err = run(
        capsys, "indep", "--tree", tripod_file, "--A", "b", "--B", "a", "--C", "node:p"
    )
    assert code == 1 and out.strip() == "dependent"
    assert "witness=b" in err
    code, out, _ = run(
        capsys, "indep", "--tree", tripod_file, "--A", "a", "--B", "b", "--C", "node:y"
    )
    assert code == 0 and out.strip() == "independent"


def test_generate_deterministic(capsys):
    code, out1, _ = run(
        capsys, "generate", "degrees", "--radius", "2", "--degrees", "3,4",
        "--depth", "2", "--seed", "7",
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "generate", "degrees", "--radius", "2", "--degrees", "3,4",
        "--depth", "2", "--seed", "7",
    )
    assert out1 == out2


def test_generate_primitive(capsys):
    code, out, _ = run(
        capsys, "generate", "primitive", "--kind", "k-star", "--params", "4,2",
        "--radius", "2",
    )
    assert code == 0
    assert out.count("edge") == 4


def test_amalgamate(tmp_path, tripod_file, capsys):
    other = tmp_path / "other.tree"
    other.write_text(TRIPOD_TEXT)
    shared = tmp_path / "map.txt"
    shared.write_text("pair node:p node:p\npair node:y node:y\n")
    code, out, _ = run(
        capsys, "amalgamate", "--left", tripod_file, "--right", str(other),
        "--shared", str(shared), "--radius", "2",
    )
    assert code == 0
    assert out.count("edge") == 5  # shared trunk + four leaf edges


@pytest.mark.parametrize(
    "side, message",
    [
        ("right", "error: hanging branch never meets the shared subtree"),
        ("left", "error: amalgam invalid: nodes unreachable from basepoint: left:u, left:w"),
    ],
)
def test_amalgamate_disconnected_factor_is_an_error(tmp_path, tripod_file, capsys, side, message):
    broken = _write(tmp_path, "broken.tree", TRIPOD_TEXT + "node u\nnode w\nedge u w 1\n")
    left, right = (tripod_file, broken) if side == "right" else (broken, tripod_file)
    shared = _write(tmp_path, "map.txt", "pair node:p node:p\npair node:y node:y\n")
    code, out, err = run(
        capsys, "amalgamate", "--left", left, "--right", right, "--shared", shared,
        "--radius", "2",
    )
    assert (code, out, err) == (1, "", message + "\n")


def test_psi(tripod_file, capsys):
    code, out, _ = run(capsys, "psi", "--tree", tripod_file, "--at", "m")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "psi", "--tree", tripod_file)
    assert code == 0 and out.strip() == "4/3"


CYCLIC_TEXT = TRIPOD_TEXT + "edge a b 1\n"


@pytest.mark.parametrize("command", [
    ["psi"],
    ["indep", "--A", "a", "--B", "b", "--C", ""],
    ["type", "of", "--points", "a,b"],
])
def test_cyclic_tree_is_an_error(command, tmp_path):
    # a tree file with one extra edge is not a tree: exit 1 naming the
    # edge that closes the cycle, and no traceback
    path = _write(tmp_path, "cyc.tree", CYCLIC_TEXT)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "rtrees.cli", *command, "--tree", path],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "closes a cycle" in proc.stderr and proc.stderr.startswith("error: edge ")
    assert "Traceback" not in proc.stderr


def test_matrix_of_one_point_on_a_cyclic_tree(tmp_path, capsys):
    # one point needs no distance, so the cycle is never reached
    path = _write(tmp_path, "cyc.tree", CYCLIC_TEXT)
    code, out, err = run(capsys, "matrix", "--tree", path, "--points", "a")
    assert (code, out, err) == (0, "labels a\n", "")


def test_usage_error_exits_2(capsys):
    assert main(["realize"]) == 2
    assert main(["no-such-command"]) == 2


def test_universal_sampling_failure_is_an_error(capsys):
    code, _, err = run(capsys, "generate", "universal", "--radius", "1/20", "--count", "2")
    assert code == 1
    assert err == "error: sampling failed to produce enough distinct functions\n"
    # radius 0 is no ball to sample: a usage error before any draw
    code, out, err = run(capsys, "generate", "universal", "--radius", "0", "--count", "3")
    assert (code, out, err) == (2, "", "error: radius must be positive\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("rb", "--depth", "-1"), "depth must be >= 0"),
        (("degrees", "--degrees", "1"), "degree set must be nonempty with all degrees >= 3"),
        (("universal", "--mu", "2"), "the richly branching regime needs an alphabet >= 3"),
        (("universal", "--count", "0"), "need at least one sample"),
    ],
)
def test_generator_argument_errors_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, "generate", *argv, "--radius", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_mesh_env_var(tripod_file, capsys, monkeypatch):
    monkeypatch.setenv("RTREE_MESH", "1/4")
    code, out, _ = run(capsys, "check", "--tree", tripod_file)
    assert code == 0 and "axiom3=0" in out


def _write(directory, name, text, encoding="utf-8"):
    path = directory / name
    path.write_text(text, encoding=encoding)
    return str(path)


BAD_INVOCATIONS = {
    "delta-missing-matrix": lambda tmp: ["delta", "--matrix", str(tmp / "missing.mat")],
    "realize-bare-labels": lambda tmp: [
        "realize", "--matrix", _write(tmp, "bare.mat", "labels\n"),
    ],
    "descriptor-missing-context": lambda tmp: [
        "type", "principal", "--descriptor",
        _write(tmp, "q.desc", "context missing.tree\nclosest 1 node p\noffset 1 1\n"),
    ],
    "type-dist-without-descriptors": lambda tmp: ["type", "dist"],
    "primitive-wrong-arity": lambda tmp: [
        "generate", "primitive", "--radius", "2", "--kind", "tripod", "--params", "1",
    ],
    "generate-rb-negative-depth": lambda tmp: [
        "generate", "rb", "--radius", "2", "--depth", "-1",
    ],
    "generate-degrees-negative-depth": lambda tmp: [
        "generate", "degrees", "--radius", "2", "--degrees", "3", "--depth", "-1",
    ],
    "generate-rb-radius-zero": lambda tmp: ["generate", "rb", "--radius", "0"],
    "generate-degrees-radius-zero": lambda tmp: [
        "generate", "degrees", "--radius", "0", "--degrees", "3",
    ],
    "generate-degrees-below-3": lambda tmp: [
        "generate", "degrees", "--radius", "2", "--degrees", "1",
    ],
    "generate-universal-alphabet-2": lambda tmp: [
        "generate", "universal", "--radius", "2", "--mu", "2",
    ],
    "generate-universal-no-samples": lambda tmp: [
        "generate", "universal", "--radius", "2", "--count", "0",
    ],
    "generate-universal-radius-zero": lambda tmp: [
        "generate", "universal", "--radius", "0", "--count", "3",
    ],
    "check-tree-is-directory": lambda tmp: ["check", "--tree", str(tmp)],
    "check-tree-not-utf8": lambda tmp: [
        "check", "--tree",
        _write(tmp, "latin1.tree", "radius 1\nnode p\xe9 basepoint\n", encoding="latin-1"),
    ],
    "realize-matrix-is-directory": lambda tmp: ["realize", "--matrix", str(tmp)],
    "realize-unknown-basepoint": lambda tmp: [
        "realize", "--matrix", _write(tmp, "m.mat", "labels a b\n1\n"), "--basepoint", "zz",
    ],
    "realize-empty-basepoint": lambda tmp: [
        "realize", "--matrix", _write(tmp, "m.mat", "labels a b\n1\n"), "--basepoint", "",
    ],
    "realize-duplicate-labels": lambda tmp: [
        "realize", "--matrix", _write(tmp, "dup.mat", "labels x x\n1\n"),
    ],
    "delta-negative-entry": lambda tmp: [
        "delta", "--matrix", _write(tmp, "neg.mat", "labels a b\n-1\n"),
    ],
    "check-radius-not-rational": lambda tmp: [
        "check", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--radius", "x",
    ],
    "type-dist-offset-not-rational": lambda tmp: [
        "type", "dist", "--ctx", "empty", "--s", "x", "--t", "1",
    ],
    "type-dist-mesh-not-rational": lambda tmp: _dist_argv(tmp, "--mesh", "x"),
    "type-dist-mesh-zero": lambda tmp: _dist_argv(tmp, "--mesh", "0"),
    "eval-mesh-zero": lambda tmp: [
        "eval", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--formula", "sup x. d(x,p)",
        "--mesh", "0",
    ],
    "psi-negative-radius-in-file": lambda tmp: [
        "psi", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT.replace("radius 2", "radius -1")),
    ],
    "check-negative-radius": lambda tmp: [
        "check", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--radius", "-1", "--mesh", "1/8",
    ],
    "generate-rb-negative-radius": lambda tmp: [
        "generate", "rb", "--radius", "-2", "--depth", "1",
    ],
    "psi-at-past-the-radius": lambda tmp: [
        "psi", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--radius", "3/2", "--at", "a",
    ],
    "check-radius-zero": lambda tmp: [
        "check", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--radius", "0",
    ],
    "degrees-not-integer": lambda tmp: [
        "generate", "degrees", "--radius", "2", "--degrees", "3,x",
    ],
    "k-star-fractional-legs": lambda tmp: [
        "generate", "primitive", "--radius", "2", "--kind", "k-star", "--params", "5/2,2",
    ],
    "eval-unbound-point": lambda tmp: [
        "eval", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--formula", "sup x. d(x,q)",
    ],
    "eval-binds-the-basepoint": lambda tmp: [
        "eval", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--formula", "d(p,q)",
        "--at", "p=a", "--at", "q=a",
    ],
    "eval-binds-a-name-twice": lambda tmp: [
        "eval", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--formula", "d(p,q)",
        "--at", "q=y", "--at", "q=a",
    ],
    "eval-binds-an-empty-name": lambda tmp: [
        "eval", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--formula", "d(p,p)",
        "--at", "=a",
    ],
    "eval-deep-parens": lambda tmp: [
        "eval", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT),
        "--formula", "(" * 2000 + "d(p,p)" + ")" * 2000,
    ],
    "eval-long-sum": lambda tmp: [
        "eval", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT),
        "--formula", "+".join(["d(p,p)"] * 1499 + ["1"]),
    ],
    "matrix-empty-point-name": lambda tmp: [
        "matrix", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--points", "a,,b",
    ],
    "matrix-repeated-point-name": lambda tmp: [
        "matrix", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--points", "a,a",
    ],
    "psi-at-unknown-node-spec": lambda tmp: [
        "psi", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--at", "node:zz",
    ],
    "matrix-edge-spec-on-no-edge": lambda tmp: [
        "matrix", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--points", "a,edge:a:b:1/2",
    ],
    "indep-edge-spec-offset-outside": lambda tmp: [
        "indep", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--A", "a", "--B", "b",
        "--C", "edge:y:a:3",
    ],
    "eval-at-unknown-node-spec": lambda tmp: [
        "eval", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--formula", "d(p,q)",
        "--at", "q=node:zz",
    ],
    "type-of-edge-spec-negative-offset": lambda tmp: [
        "type", "of", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--points", "edge:p:y:-1",
    ],
    "amalgamate-shared-unknown-node-spec": lambda tmp: [
        "amalgamate", "--left", _write(tmp, "l.tree", TRIPOD_TEXT),
        "--right", _write(tmp, "r.tree", TRIPOD_TEXT),
        "--shared", _write(tmp, "map.txt", "pair node:p node:p\npair node:y node:zz\n"),
        "--radius", "2",
    ],
    "type-of-empty-point-name": lambda tmp: [
        "type", "of", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--points", "a,,b",
    ],
    "type-of-empty-param-name": lambda tmp: [
        "type", "of", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--params", "y,",
        "--points", "a",
    ],
    "indep-empty-point-name": lambda tmp: [
        "indep", "--tree", _write(tmp, "t.tree", TRIPOD_TEXT), "--A", "a", "--B", ",b",
        "--C", "node:y",
    ],
    "type-dist-exact-arity-4": lambda tmp: [
        "type", "dist", "--q1", _dist_files(tmp)[2], "--q2", _dist_files(tmp)[2], "--exact",
    ],
    "type-eq-pair-index-zero": lambda tmp: _eq_argv(tmp, "pair 0 1 2"),
    "type-eq-pair-index-negative": lambda tmp: _eq_argv(tmp, "pair -1 2 2"),
    "type-eq-pair-repeated-reversed": lambda tmp: _eq_argv(tmp, "pair 1 2 2\npair 2 1 1"),
    "type-eq-offset-extra-token": lambda tmp: _eq_argv(tmp, "offset 1 1/2 junk"),
    "type-principal-closest-index-zero": lambda tmp: [
        "type", "principal", "--descriptor",
        _write(tmp, "c0.desc", "context dot.tree\nclosest 0 node p\noffset 1 1\n"),
    ],
    "type-principal-offset-index-negative": lambda tmp: [
        "type", "principal", "--descriptor",
        _write(tmp, "o0.desc", "context dot.tree\nclosest 1 node p\noffset -1 1\n"),
    ],
    "type-principal-nonempty-context": lambda tmp: [
        "type", "principal", "--descriptor", _tripod_context_desc(tmp),
    ],
    "type-eq-different-contexts": lambda tmp: [
        "type", "eq", "--q1", _dot_one_type(tmp), "--q2", _tripod_context_desc(tmp),
    ],
    "type-dist-different-arities": lambda tmp: [
        "type", "dist", "--q1", _dot_one_type(tmp), "--q2", _dist_files(tmp)[0],
    ],
}


def _dot_one_type(tmp):
    """A 1-type over the empty context of the one-point tree."""
    _write(tmp, "dot.tree", DOT_TEXT)
    return _write(tmp, "one.desc", _descriptor_text([1], {}))


def _tripod_context_desc(tmp):
    """A 1-type over the context spanned by the tripod's declared points."""
    _write(tmp, "tripod.tree", TRIPOD_TEXT)
    return _write(tmp, "ctx.desc", "context tripod.tree\nclosest 1 node p\noffset 1 1\n")


def _eq_argv(tmp, pair_line):
    """``type eq`` of a 2-type whose pair line is ``pair_line`` against itself."""
    _write(tmp, "dot.tree", DOT_TEXT)
    text = _descriptor_text([1, 1], {}) + pair_line + "\n"
    path = _write(tmp, "q.desc", text)
    return ["type", "eq", "--q1", path, "--q2", path]


def test_type_eq_and_principal_validate_descriptors(tmp_path, capsys):
    # the same check, message and exit code as ``type realize``
    _write(tmp_path, "dot.tree", DOT_TEXT)
    bad = _write(tmp_path, "bad.desc", _descriptor_text([5], {}))
    good = _write(tmp_path, "good.desc", _descriptor_text([1], {}))
    violation = "violation=offset_bound detail=offset s_1=5 outside [0, 2]\n"
    for argv in (
        ["type", "eq", "--q1", bad, "--q2", bad],
        ["type", "eq", "--q1", good, "--q2", bad],
        ["type", "principal", "--descriptor", bad],
        ["type", "realize", "--descriptor", bad],
    ):
        assert run(capsys, *argv) == (1, "", violation)
    assert run(capsys, "type", "eq", "--q1", good, "--q2", good) == (0, "equal\n", "")
    assert run(capsys, "type", "principal", "--descriptor", good) == (0, "principal\n", "")


def test_type_dist_validates_descriptors(tmp_path, capsys):
    # the same check, message and exit code as ``type eq``, before either path
    _write(tmp_path, "dot.tree", DOT_TEXT)
    bad = _write(tmp_path, "bad.desc", _descriptor_text([3], {}))
    good = _write(tmp_path, "good.desc", _descriptor_text([1], {}))
    violation = "violation=offset_bound detail=offset s_1=3 outside [0, 2]\n"
    for pair in ((bad, good), (good, bad)):
        argv = ["type", "dist", "--q1", pair[0], "--q2", pair[1]]
        assert run(capsys, *argv) == (1, "", violation)
        assert run(capsys, *argv, "--exact") == (1, "", violation)
        assert run(capsys, "type", "eq", *argv[2:]) == (1, "", violation)
    assert run(capsys, "type", "dist", "--q1", good, "--q2", good, "--exact") == (0, "0\n", "")


def test_point_lists_reject_empty_names_but_allow_repeats(tripod_file, capsys):
    code, out, err = run(capsys, "type", "of", "--tree", tripod_file, "--points", "a,,b")
    assert (code, out) == (2, "") and "--points: name 2 of 3 is empty" in err
    code, out, err = run(
        capsys, "indep", "--tree", tripod_file, "--A", "a", "--B", "b", "--C", "node:y,"
    )
    assert (code, out) == (2, "") and "--C: name 2 of 2 is empty" in err
    code, out, _ = run(capsys, "type", "of", "--tree", tripod_file, "--points", "a,a")
    assert code == 0 and "pair 1 2 0" in out


@pytest.mark.parametrize("argv, what", [
    (["type", "of", "--points", ""], "--points"),
    (["indep", "--A", "", "--B", "b", "--C", "b"], "--A"),
])
def test_empty_required_point_list_is_a_usage_error(tripod_file, capsys, argv, what):
    code, out, err = run(capsys, *argv, "--tree", tripod_file)
    assert (code, out, err) == (2, "", f"error: {what}: name 1 of 1 is empty\n")


@pytest.mark.parametrize("argv, want", [
    (["type", "of", "--params", "", "--points", "a"], (0, "closest 1 p\noffset 1 2\n")),
    (["indep", "--A", "a", "--B", "", "--C", "b"], (0, "independent\n")),
    (["indep", "--A", "a", "--B", "b", "--C", ""], (1, "dependent\n")),
])
def test_empty_parameter_list_is_the_empty_set(tripod_file, capsys, argv, want):
    code, out, _ = run(capsys, *argv, "--tree", tripod_file)
    assert (code, out) == want


@pytest.mark.parametrize("tree_text, message", [
    ("radius 3\nnode p basepoint\nnode y\nnode z\nedge p y 1\nedge y z 2\npoint y node y\n",
     "point z would sit at distance 3 > 2 from the basepoint"),
    ("radius 2\nnode p basepoint\nnode y\nnode z\nedge p y 1\npoint y node y\n",
     "node 'z' not connected to the basepoint"),
])
def test_type_realize_rejects_bad_ambients(tmp_path, capsys, tree_text, message):
    _write(tmp_path, "amb.tree", tree_text)
    desc = _write(tmp_path, "q.desc", "context amb.tree\nradius 2\nclosest 1 node y\noffset 1 1/2\n")
    code, out, err = run(capsys, "type", "realize", "--descriptor", desc)
    assert (code, out, err) == (1, "", f"error: {message}\n")


SHARED_LABELS_TEXT = """\
radius 3
node p basepoint
node g0:s1 label=t1
node g0:t1 label=t1
node t2 label=t2
node g1:t2 label=t2
edge p g0:s1 1
edge p g0:t1 2
edge p t2 1
edge p g1:t2 2
"""


def test_a_label_on_several_nodes_is_a_usage_error(tmp_path, capsys):
    # as a chained realization leaves t1 on two nodes
    path = _write(tmp_path, "shared.tree", SHARED_LABELS_TEXT)
    code, out, err = run(capsys, "type", "of", "--tree", path, "--points", "t1")
    assert (code, out, err) == (2, "", "error: label 't1' is on more than one node: g0:s1, g0:t1\n")
    # a declared point name or a node id takes precedence over labels
    code, out, _ = run(capsys, "type", "of", "--tree", path, "--points", "t2")
    assert (code, out) == (0, "closest 1 p\noffset 1 1\n")
    path = _write(tmp_path, "named.tree", SHARED_LABELS_TEXT + "point t1 node g0:t1\n")
    code, out, _ = run(capsys, "type", "of", "--tree", path, "--points", "t1")
    assert (code, out) == (0, "closest 1 p\noffset 1 2\n")


def test_parser_is_reused_without_carrying_bindings(tripod_file, capsys):
    code, out, _ = run(
        capsys, "eval", "--tree", tripod_file, "--formula", "d(q,p)", "--at", "q=a",
    )
    assert (code, out) == (0, "2\n")
    code, out, err = run(capsys, "eval", "--tree", tripod_file, "--formula", "d(q,p)")
    assert (code, out) == (2, "")
    assert "formula has unbound points: q" in err
    assert cli.build_parser() is cli.build_parser()


def test_eval_bindings_are_distinct_and_never_the_basepoint(tripod_file, capsys):
    base = ("eval", "--tree", tripod_file, "--formula", "d(p,q)")
    code, out, err = run(capsys, *base, "--at", "p=a", "--at", "q=a")
    assert (code, out, err) == (2, "", "error: --at: name 'p' is the basepoint and cannot be bound\n")
    code, out, err = run(capsys, *base, "--at", "q=y", "--at", "q=a")
    assert (code, out, err) == (2, "", "error: --at: name 'q' is repeated\n")
    code, out, err = run(capsys, *base, "--at", "=a", "--at", "q=a")
    assert (code, out, err) == (2, "", "error: bad --at binding '=a'; use name=point\n")


def test_malformed_node_and_edge_specs_are_usage_errors(tmp_path, tripod_file, capsys):
    # the text the library gives, as for a bare unknown name, with exit 2
    shared = _write(tmp_path, "map.txt", "pair node:p node:p\npair edge:p:y:2 node:y\n")
    for argv, message in (
        (["psi", "--tree", tripod_file, "--at", "node:zz"], "unknown node 'zz'"),
        (["matrix", "--tree", tripod_file, "--points", "a,edge:a:b:1/2"], "unknown edge a-b"),
        (
            ["indep", "--tree", tripod_file, "--A", "a", "--B", "b", "--C", "edge:y:a:3"],
            "offset 3 outside edge y-a of length 1",
        ),
        (
            ["eval", "--tree", tripod_file, "--formula", "d(p,q)", "--at", "q=node:zz"],
            "unknown node 'zz'",
        ),
        (
            ["type", "of", "--tree", tripod_file, "--points", "edge:p:y:-1"],
            "offset -1 outside edge p-y of length 1",
        ),
        (
            ["amalgamate", "--left", tripod_file, "--right", tripod_file, "--shared", shared,
             "--radius", "2"],
            "offset 2 outside edge p-y of length 1",
        ),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert run(capsys, "psi", "--tree", tripod_file, "--at", "zz") == (
        2, "", "error: unknown point 'zz'\n"
    )


def test_matrix_point_names_must_be_distinct_and_nonempty(tripod_file, capsys):
    code, _, err = run(capsys, "matrix", "--tree", tripod_file, "--points", "a,,b")
    assert code == 2 and "name 2 of 3 is empty" in err
    code, _, err = run(capsys, "matrix", "--tree", tripod_file, "--points", "a,b,a")
    assert code == 2 and "name 'a' is repeated" in err


@pytest.mark.parametrize("case", sorted(BAD_INVOCATIONS))
def test_bad_input_exits_2_without_traceback(case, tmp_path):
    argv = BAD_INVOCATIONS[case](tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "rtrees.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
