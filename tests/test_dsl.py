import pytest

from hpa.dsl import ParseError, emit_quiver, parse_quiver


P2_DOC = """
vertices: v0 v1 v2
arrows:
  x: v0 -> v1
  y: v0 -> v1
  z: v0 -> v1
  x': v1 -> v2
  y': v1 -> v2
  z': v1 -> v2
relations:
  x y' = y x'
  x z' = z x'
  y z' = z y'
"""


def test_parse_p2():
    q, rels = parse_quiver(P2_DOC)
    assert len(q.vertices) == 3
    assert len(q.arrows) == 6
    assert len(rels.groups) == 3
    assert all(len(g) == 2 for g in rels.groups)


def test_single_line_sections():
    q, rels = parse_quiver("vertices: v0 v1\narrows: a: v0->v1")
    assert len(q.arrows) == 1 and len(rels.groups) == 0


def test_comments_and_blank_lines():
    q, _ = parse_quiver("# c\nvertices: a b  # trailing\n\narrows:\n a1: a->b\n")
    assert q.arrows[0].label == 'a1'


def test_round_trip():
    q, rels = parse_quiver(P2_DOC)
    doc = emit_quiver(q, rels)
    q2, rels2 = parse_quiver(doc)
    assert q2.vertices == q.vertices
    assert q2.arrows == q.arrows
    assert [tuple(w.labels for w in g) for g in rels2.groups] == \
           [tuple(w.labels for w in g) for g in rels.groups]
    assert emit_quiver(q2, rels2) == doc


def test_unknown_vertex_error():
    with pytest.raises(ParseError) as e:
        parse_quiver("vertices: v0\narrows:\n a: v0 -> v9")
    assert e.value.line == 3


def test_bad_arrow_line():
    with pytest.raises(ParseError, match="bad arrow line"):
        parse_quiver("vertices: v0 v1\narrows:\n a v0 -> v1")


def test_noncomposable_relation():
    with pytest.raises(ParseError) as e:
        parse_quiver("vertices: v0 v1\narrows:\n a: v0->v1\n b: v0->v1\n"
                     "relations:\n a b = b a")
    assert str(e.value) == (
        "line 6: word not composable: 'b' starts at 'v0', expected 'v1'")
    assert e.value.line == 6


def test_endpoint_mismatch():
    with pytest.raises(ParseError) as e:
        parse_quiver("vertices: v0 v1 v2\narrows:\n a: v0->v1\n b: v1->v2\n"
                     "relations:\n a b = a")
    assert str(e.value) == (
        "line 6: relation endpoints mismatch: a b is v0->v2 but a is v0->v1")
    assert e.value.line == 6


RELATIONS_DOC = ("vertices: v0 v1 v2\narrows:\n  a: v0 -> v1\n  b: v0 -> v1\n"
                 "  c: v1 -> v2\n  d: v1 -> v2\nrelations:\n  a c = b d\n")


# Each refusal of a relation line, after a good line 8: its message and line.
# A word whose first and last labels are known and give the line's endpoints
# is only walked when the relation set is built, so its refusal must still
# come before any on a later line, and before a repeated word on an
# earlier one.
@pytest.mark.parametrize('lines, message, line', [
    ("  a d = b c = c b\n",
     "word not composable: 'b' starts at 'v0', expected 'v2'", 9),
    ("  a d = b c c\n",
     "word not composable: 'c' starts at 'v1', expected 'v2'", 9),
    ("  a d = b zz\n", "unknown arrow label 'zz'", 9),
    ("  a d = b zz d\n", "unknown arrow label 'zz'", 9),
    ("  a d = b:c\n", "bad word 'b:c'", 9),
    ("  a d = b -> c\n", "bad word 'b -> c'", 9),
    ("  a d=->\n", "bad word '->'", 9),
    ("  a d = b\n",
     "relation endpoints mismatch: a d is v0->v2 but b is v0->v1", 9),
    ("  a d = b c c\n  a = c\n",
     "word not composable: 'c' starts at 'v1', expected 'v2'", 9),
    ("  a d = b c = a d\n  a = c d\n",
     "word not composable: 'd' starts at 'v1', expected 'v2'", 10),
    ("  a d = b c = a d\n  b c = a c c\n",
     "word not composable: 'c' starts at 'v1', expected 'v2'", 10),
])
def test_relation_line_refusals(lines, message, line):
    with pytest.raises(ParseError) as e:
        parse_quiver(RELATIONS_DOC + lines)
    assert str(e.value) == f"line {line}: {message}"
    assert e.value.line == line


def test_duplicate_vertex():
    with pytest.raises(ParseError, match="duplicate vertex"):
        parse_quiver("vertices: v0 v0")


def test_duplicate_label():
    with pytest.raises(ParseError, match="duplicate arrow label"):
        parse_quiver("vertices: v0 v1\narrows:\n a: v0->v1\n a: v0->v1")


def test_content_before_section():
    with pytest.raises(ParseError, match="before any section"):
        parse_quiver("a: v0 -> v1")


def test_bad_relation_line():
    with pytest.raises(ParseError, match="bad relation line"):
        parse_quiver("vertices: v0 v1\narrows:\n a: v0->v1\nrelations:\n a =")


def test_relation_error_reports_its_own_line():
    doc = ("vertices: v0 v1 v2\n"
           "arrows:\n"
           " a: v0 -> v1\n"
           " b: v0 -> v1\n"
           " c: v1 -> v2\n"
           " d: v1 -> v2\n"
           "relations:\n"
           " a c = b d\n"
           " a d = b c = a d\n")
    with pytest.raises(ParseError, match="repeated word") as e:
        parse_quiver(doc)
    assert e.value.line == 9
    with pytest.raises(ParseError, match="two relation groups") as e:
        parse_quiver(doc.replace("a d = b c = a d", "a d = a c"))
    assert e.value.line == 9
