import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rtrees import (
    EdgePoint,
    TreeSkeleton,
    Vertex,
    normalize_point,
    random_point,
    random_tree,
    tree_to_matrix,
)
from rtrees.rationals import as_rat, format_rat
from rtrees.treeio import (
    FormatError,
    parse_descriptor_text,
    parse_matrix_text,
    parse_tree,
    serialize_matrix_text,
    serialize_tree,
)


TRIPOD_TEXT = """\
# unit tripod
radius 2
node p basepoint
node y
node a label=a
node b label=b
edge p y 1
edge y a 1
edge y b 1
point m edge p y 1/2
point a node a
"""


def test_parse_tree():
    doc = parse_tree(TRIPOD_TEXT)
    assert doc.radius == 2
    assert doc.tree.basepoint == "p"
    assert doc.tree.edge_length("y", "a") == 1
    assert doc.points["m"] == EdgePoint("p", "y", Fraction(1, 2))
    assert doc.points["a"] == Vertex("a")


def test_serialize_round_trip():
    doc = parse_tree(TRIPOD_TEXT)
    text = serialize_tree(doc.tree, doc.radius, doc.points)
    doc2 = parse_tree(text)
    assert doc2.tree == doc.tree
    assert doc2.radius == doc.radius
    assert doc2.points == doc.points
    # serialization is deterministic
    assert text == serialize_tree(doc2.tree, doc2.radius, doc2.points)


def test_multiple_labels_accumulate():
    doc = parse_tree("radius 1\nnode p basepoint label=x\nnode p label=y\n")
    assert doc.tree.labels_of("p") == ("x", "y")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_tree("radius 1\nnode p basepoint\nedge p q 1.5\n")
    assert err.value.line == 3
    with pytest.raises(FormatError):
        parse_tree("node p basepoint\n")  # missing radius
    with pytest.raises(FormatError):
        parse_tree("radius 1\nradius 2\nnode p basepoint\n")
    with pytest.raises(FormatError):
        parse_tree("radius 1\nnode p\n")  # no basepoint


def test_float_literals_rejected():
    with pytest.raises(FormatError):
        parse_tree("radius 1.5\nnode p basepoint\n")


def test_matrix_round_trip():
    labels = ("p", "a", "b")
    entries = [
        [Fraction(0), Fraction(2), Fraction(3, 2)],
        [Fraction(2), Fraction(0), Fraction(2)],
        [Fraction(3, 2), Fraction(2), Fraction(0)],
    ]
    text = serialize_matrix_text(labels, entries)
    labels2, entries2 = parse_matrix_text(text)
    assert labels2 == labels
    assert entries2 == entries


def test_matrix_errors():
    with pytest.raises(FormatError):
        parse_matrix_text("1 2\n3\n")
    with pytest.raises(FormatError):
        parse_matrix_text("labels a b c\n1 2\n")  # short row count
    with pytest.raises(FormatError):
        parse_matrix_text("labels a b\n0.5\n")


def _descriptor(*body):
    return "\n".join(["context dot.tree", *body]) + "\n"


def test_descriptor_indices_below_1_are_rejected(tmp_path):
    (tmp_path / "dot.tree").write_text("radius 2\nnode p basepoint\n")
    good = ["closest 1 node p", "closest 2 node p", "offset 1 1", "offset 2 1"]
    _, _, _, _, rho = parse_descriptor_text(_descriptor(*good, "pair 1 2 2"), str(tmp_path))
    assert rho == [[0, 2], [2, 0]]
    bad = {
        # negative list indexing used to read both pairs as ``pair 1 2 2``
        _descriptor(*good, "pair 0 1 2"): 6,
        _descriptor(*good, "pair -1 2 2"): 6,
        _descriptor("closest 0 node p", "offset 1 1"): 2,
        _descriptor("closest 1 node p", "offset -1 1"): 3,
    }
    for text, line in bad.items():
        with pytest.raises(FormatError, match="below 1") as err:
            parse_descriptor_text(text, str(tmp_path))
        assert err.value.line == line


def test_descriptor_lines_are_not_repeated_and_take_no_extra_tokens(tmp_path):
    (tmp_path / "dot.tree").write_text("radius 2\nnode p basepoint\n")
    good = ["radius 2", "closest 1 node p", "closest 2 node p", "offset 1 1", "offset 2 1"]
    _, _, _, _, rho = parse_descriptor_text(_descriptor(*good, "pair 2 1 2"), str(tmp_path))
    assert rho == [[0, 2], [2, 0]]
    repeated = {
        "context dot.tree": "context given twice",
        "radius 1": "radius given twice",
        "closest 2 node p": "closest 2 given twice",
        "offset 1 1/2": "offset 1 given twice",
        "pair 1 2 1": "pair 1 2 given twice",
        "pair 2 1 1": "pair 1 2 given twice",
    }
    for extra, message in repeated.items():
        for pair in ("pair 1 2 2", "pair 2 1 2"):
            with pytest.raises(FormatError, match=message) as err:
                parse_descriptor_text(_descriptor(*good, pair, extra), str(tmp_path))
            assert err.value.line == 8
    extra_tokens = {
        "context dot.tree junk": "context needs a tree file path",
        "radius 2 junk": "radius needs one value",
        "closest 1 node p junk": "bad point location",
        "closest 1": "bad point location",
        "closest": "closest needs an index and a location",
        "offset 1 1/2 junk": "offset needs an index and a value",
        "pair 1 2 2 junk": "pair needs two indices and a value",
    }
    for line, message in extra_tokens.items():
        with pytest.raises(FormatError, match=message) as err:
            parse_descriptor_text(_descriptor(line, *good), str(tmp_path))
        assert err.value.line == 2


def test_negative_radius_is_rejected_with_its_line(tmp_path):
    with pytest.raises(FormatError, match="negative") as err:
        parse_tree(TRIPOD_TEXT.replace("radius 2", "radius -1/2"))
    assert err.value.line == 2
    assert parse_tree(TRIPOD_TEXT.replace("radius 2", "radius 0")).radius == 0
    (tmp_path / "dot.tree").write_text("radius 2\nnode p basepoint\n")
    body = ["radius -1", "closest 1 node p", "offset 1 1"]
    with pytest.raises(FormatError, match="negative") as err:
        parse_descriptor_text(_descriptor(*body), str(tmp_path))
    assert err.value.line == 2
    body[0] = "radius 0"
    assert parse_descriptor_text(_descriptor(*body), str(tmp_path))[1] == 0


ROUND_TRIPS = settings(max_examples=60, deadline=None, derandomize=True)
NAMES = st.text(alphabet="abcxyz019_=#", min_size=1, max_size=4)
RADII = st.fractions(min_value=0, max_value=5, max_denominator=12)


def _labelled_tree(seed, names):
    """``random_tree(seed)`` with the given names spread over its nodes as
    labels, and named points at its vertices and inside its edges."""
    rng = random.Random(seed)
    base = random_tree(seed, max_nodes=7)
    labels = {}
    for name in names:
        labels.setdefault(rng.choice(base.nodes()), []).append(name)
    tree = TreeSkeleton(base.basepoint, base.edges(), labels, extra_nodes=base.nodes())
    points = {f"q{i}": random_point(rng, tree) for i in range(rng.randrange(6))}
    return tree, points


@ROUND_TRIPS
@given(st.integers(0, 10**6), st.lists(NAMES, max_size=6), RADII)
def test_tree_text_round_trip(seed, names, radius):
    tree, points = _labelled_tree(seed, names)
    text = serialize_tree(tree, radius, points)
    doc = parse_tree(text)
    assert (doc.tree, doc.radius, doc.points) == (tree, radius, points)
    assert serialize_tree(doc.tree, doc.radius, doc.points) == text


@ROUND_TRIPS
@given(st.integers(0, 10**6))
def test_matrix_text_round_trip(seed):
    tree, points = _labelled_tree(seed, [])
    pts = [Vertex(n) for n in tree.nodes()] + list(points.values())
    m = tree_to_matrix(tree, pts)
    text = serialize_matrix_text(m.labels, m.entries)
    labels, entries = parse_matrix_text(text)
    assert (labels, tuple(tuple(row) for row in entries)) == (m.labels, m.entries)
    assert serialize_matrix_text(labels, entries) == text


def _write_descriptor(rng, tree, radius, closest, offsets, pairs):
    """Descriptor text for the given data, read against ``dot.tree``: the
    context first, the other lines shuffled, edge points given from either
    end and pair indices in either order."""
    lines = [] if radius is None else [f"radius {format_rat(radius)}"]
    for i, (pt, off) in enumerate(zip(closest, offsets), start=1):
        if isinstance(pt, Vertex):
            loc = f"node {pt.node}"
        elif rng.random() < 0.5:
            loc = f"edge {pt.u} {pt.v} {format_rat(pt.offset)}"
        else:
            rest = tree.edge_length(pt.u, pt.v) - pt.offset
            loc = f"edge {pt.v} {pt.u} {format_rat(rest)}"
        lines += [f"closest {i} {loc}", f"offset {i} {format_rat(off)}"]
    for (i, j), val in pairs.items():
        i, j = (i, j) if rng.random() < 0.5 else (j, i)
        lines.append(f"pair {i} {j} {format_rat(val)}")
    rng.shuffle(lines)
    return "\n".join(["# a descriptor", "context dot.tree", *lines]) + "\n"


@ROUND_TRIPS
@given(st.integers(0, 10**6), st.integers(1, 5), st.one_of(st.none(), RADII))
def test_descriptor_text_round_trip(seed, n, radius):
    tree, _ = _labelled_tree(seed, ["a", "b"])
    rng = random.Random(seed)
    closest = tuple(normalize_point(tree, random_point(rng, tree)) for _ in range(n))
    offsets = tuple(Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n))
    pairs = {
        (i, j): Fraction(rng.randint(0, 24), rng.randint(1, 4))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < 0.7
    }
    text = _write_descriptor(rng, tree, radius, closest, offsets, pairs)
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "dot.tree"), "w") as fh:
            fh.write(serialize_tree(tree, 3))
        doc, got_radius, got_closest, got_offsets, rho = parse_descriptor_text(text, tmp)
    assert doc.tree == tree
    assert got_radius == (3 if radius is None else radius)
    assert (got_closest, got_offsets) == (closest, offsets)
    assert rho == [
        [pairs.get((min(i, j), max(i, j)), 0) for j in range(1, n + 1)] for i in range(1, n + 1)
    ]


def _fraction_route(value):
    """``as_rat`` on a string as it read every literal before its plain-digit
    path: strip, refuse decimals and exponents, then ``Fraction``."""
    text = value.strip()
    if "." in text or "e" in text or "E" in text or not text:
        raise ValueError(f"not an exact rational literal: {value!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational literal: {value!r}") from exc


LITERALS = [
    "0", "3", "007", "3/4", "12/8", "0/5", "1/02", "10/1", "98765432109876543210/3",
    "+3", "-3", "-3/4", "+0/7", "3/-4", "-0", " 3", "3 ", " 3/4\n", "\t7", "3 /4", "3/ 4",
    "1_000", "1_0/3", "3/1_0", "_1", "1/0", "0/0", "1/00", "3//4", "3/4/5", "/4", "3/", "/",
    "", " ", "1.5", "1/2.", "1e3", "1E3", "e", "inf", "nan", "abc", "3a", "0x10",
    "\u0661\u0662", "\uff11\uff12/3", "3/\u0664", "\u00b2", "1/\u00b2", "\u0663/4",
    "9" * 4301, "1/" + "7" * 4301, "9" * 4300,
]


def test_plain_literals_read_as_the_fraction_route():
    # the plain-digit path gives each string the value, or the exception type
    # and text, of the Fraction route; signs, spaces, underscores, other
    # digits, zero denominators, decimals and exponents take that route
    for text in LITERALS:
        try:
            want = ("value", _fraction_route(text))
        except Exception as exc:  # noqa: BLE001 - the type and text are compared
            want = (type(exc), str(exc))
        try:
            got = ("value", as_rat(text))
        except Exception as exc:  # noqa: BLE001
            got = (type(exc), str(exc))
        assert got == want, text
    assert as_rat("12/8") == Fraction(3, 2) and as_rat("-3/4") == Fraction(-3, 4)
