"""Parser fuzzing: text over the formula alphabet either parses or gives a
located syntax error, and ``rtree eval`` on it never ends in a traceback."""

import contextlib
import io

import pytest

from rtrees import FormulaSyntaxError, parse_formula
from rtrees.cli import main
from rtrees.formulas import MAX_DEPTH

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CHECKS = settings(max_examples=300, deadline=None, derandomize=True)

SEGMENT_TEXT = "radius 2\nnode p basepoint\nnode q\nedge p q 1\npoint m edge p q 1/2\n"

PIECES = (
    "d(", "x", "y", "p", "m", "q", ",", "(", ")", "+", "-.", "-", "*", "/", ".",
    "0", "1", "12", "max(", "min(", "abs(", "sup x.", "inf y.", "sup", " ", "\n",
    "d(x,p)", "d(m,y)",
)


nested_texts = st.builds(
    lambda opener, core, k, closer: opener * k + core + closer * k,
    st.sampled_from(["(", "max(", "1 * ", "abs(", "sup x. ("]),
    st.sampled_from(["d(x,p)", "1", "d(p,x) + 1", ""]),
    st.integers(0, 20 * MAX_DEPTH),
    st.sampled_from([")", ", 1)", "", " - 1)", "))"]),
)
long_sums = st.builds(
    lambda op, k: op.join(["d(p,x)"] * k),
    st.sampled_from([" + ", "-.", "+("]),
    st.integers(1, 20 * MAX_DEPTH),
)
piece_texts = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)
formula_texts = nested_texts | long_sums | piece_texts


def inside(text, line, column):
    lines = text.split("\n")
    return 1 <= line <= len(lines) and 1 <= column <= len(lines[line - 1]) + 1


@CHECKS
@given(formula_texts)
def test_parse_returns_or_locates_its_error(text):
    try:
        parse_formula(text)
    except FormulaSyntaxError as exc:
        assert inside(text, exc.line, exc.column)


@pytest.fixture(scope="module")
def segment_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "segment.tree"
    path.write_text(SEGMENT_TEXT)
    return str(path)


@CHECKS
@given(text=formula_texts)
def test_eval_exits_0_or_2(segment_file, text):
    argv = ["eval", "--tree", segment_file, f"--formula={text}", "--at", "x=q", "--mesh", "1/2"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2)
