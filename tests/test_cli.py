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


def test_type_dist_empty_context(capsys):
    code, out, _ = run(capsys, "type", "dist", "--ctx", "empty", "--s", "2", "--t", "1/2")
    assert code == 0 and out.strip() == "3/2"


def test_type_dist_empty_context_checks_offsets(capsys):
    # the same check, message and exit code as for descriptor files
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


def test_usage_error_exits_2(capsys):
    assert main(["realize"]) == 2
    assert main(["no-such-command"]) == 2


def test_universal_sampling_failure_is_an_error(capsys):
    code, _, err = run(capsys, "generate", "universal", "--radius", "0", "--count", "2")
    assert code == 1
    assert err == "error: sampling failed to produce enough distinct functions\n"


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
    "check-tree-is-directory": lambda tmp: ["check", "--tree", str(tmp)],
    "check-tree-not-utf8": lambda tmp: [
        "check", "--tree",
        _write(tmp, "latin1.tree", "radius 1\nnode p\xe9 basepoint\n", encoding="latin-1"),
    ],
    "realize-matrix-is-directory": lambda tmp: ["realize", "--matrix", str(tmp)],
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


def test_point_lists_reject_empty_names_but_allow_repeats(tripod_file, capsys):
    code, out, err = run(capsys, "type", "of", "--tree", tripod_file, "--points", "a,,b")
    assert (code, out) == (2, "") and "--points: name 2 of 3 is empty" in err
    code, out, err = run(
        capsys, "indep", "--tree", tripod_file, "--A", "a", "--B", "b", "--C", "node:y,"
    )
    assert (code, out) == (2, "") and "--C: name 2 of 2 is empty" in err
    code, out, _ = run(capsys, "type", "of", "--tree", tripod_file, "--points", "a,a")
    assert code == 0 and "pair 1 2 0" in out


def test_parser_is_reused_without_carrying_bindings(tripod_file, capsys):
    code, out, _ = run(
        capsys, "eval", "--tree", tripod_file, "--formula", "d(q,p)", "--at", "q=a",
    )
    assert (code, out) == (0, "2\n")
    code, out, err = run(capsys, "eval", "--tree", tripod_file, "--formula", "d(q,p)")
    assert (code, out) == (2, "")
    assert "formula has unbound points: q" in err
    assert cli.build_parser() is cli.build_parser()


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
