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
    with pytest.raises(ParseError, match="not composable"):
        parse_quiver("vertices: v0 v1\narrows:\n a: v0->v1\n b: v0->v1\n"
                     "relations:\n a b = b a")


def test_endpoint_mismatch():
    with pytest.raises(ParseError, match="endpoints mismatch"):
        parse_quiver("vertices: v0 v1 v2\narrows:\n a: v0->v1\n b: v1->v2\n"
                     "relations:\n a b = a")


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
