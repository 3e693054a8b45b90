from fractions import Fraction

import pytest

from rtrees import EdgePoint, Vertex
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
