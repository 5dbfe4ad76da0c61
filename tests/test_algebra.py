import pytest
from hypothesis import assume, given, settings, strategies as st

from hpa.algebra import (NotCancellativeError, RelationError, RelationSet,
                         check_hpa, from_document, tensor)
from hpa.invariants import betti_table, koszul_check
from hpa.morse import babson_hersh_matching, greedy_internal_matching
from hpa.dsl import parse_quiver
from hpa.quiver import (Arrow, CycleError, PathWord, Quiver, QuiverError,
                        enumerate_paths, trivial_word)
from hpa.resolution import cellular_resolution
from hpa.toric import (WeightData, bondal_ruan_hpa, build_toric_hpa,
                       check_cohomologically_proper, image_phi)

from conftest import (BENCHMARK_INPUTS, FIXTURES, RP2_TRIANGLES, algebras,
                      bhk_algebra, exit_path_dsl, forward_sweep, free_algebra,
                      linear_quiver, load_algebra, open_interval, word_key,
                      words_by_class)


def test_single_arrow_words():
    q, rels = parse_quiver("vertices: v0 v1\narrows: a: v0->v1")
    words = enumerate_paths(q)
    assert len(words) == 3  # e0, e1, a
    assert trivial_word('v0') in words
    assert PathWord('v0', 'v1', ('a',)) in words


def words_in_key_order(q):
    """Every path word, grown an arrow at a time from each vertex, then
    sorted by `word_key`."""
    words, frontier = [], [trivial_word(v) for v in q.vertices]
    while frontier:
        words += frontier
        frontier = [PathWord(w.tail, x.head, w.labels + (x.label,))
                    for w in frontier for x in q.out[w.head]]
    return sorted(words, key=lambda w: word_key(q, w))


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(lambda r: algebras(with_relations=r)))
def test_enumerate_paths_lists_each_word_once_in_key_order(a):
    assert enumerate_paths(a.quiver) == words_in_key_order(a.quiver)


def test_enumerate_paths_lists_exit_path_words_in_key_order():
    # a larger quiver, with many parallel paths: the face poset of RP^2
    # after one barycentric subdivision
    q, _ = parse_quiver(exit_path_dsl(RP2_TRIANGLES, 1))
    assert enumerate_paths(q) == words_in_key_order(q)


def test_linear_quiver_counts():
    # 3 vertices, 2 arrows: 6 composable words
    q = linear_quiver(2)
    assert len(q.vertices) == 3 and len(q.arrows) == 2
    assert len(enumerate_paths(q)) == 6


def test_cycle_rejected():
    with pytest.raises(CycleError) as e:
        Quiver(['u', 'v'], [('a', 'u', 'v'), ('b', 'v', 'u')])
    assert set(e.value.cycle) >= {'u', 'v'}


def test_p2_words_and_classes(p2):
    by_tail = {}
    for ws in words_by_class(p2).values():
        for w in ws:
            by_tail[w.tail] = by_tail.get(w.tail, 0) + 1
    assert by_tail == {'v0': 13, 'v1': 4, 'v2': 1}
    assert len(p2.classes) == 15
    per_tail = {}
    for c in p2.classes:
        per_tail[c.tail] = per_tail.get(c.tail, 0) + 1
    assert per_tail == {'v0': 10, 'v1': 4, 'v2': 1}
    assert p2.graded
    # canonical representative is the lexicographically least word
    cid = p2.word_class(p2.quiver.word('v0', ('y', 'x\'')))
    assert p2.cls(cid).rep.labels == ('x', 'y\'')


def test_p2_is_hpa(p2):
    assert check_hpa(p2).ok


def test_left_cancellation_violation():
    a = from_document("""
        vertices: v0 v1 v2
        arrows:
          a: v0 -> v1
          b: v1 -> v2
          c: v1 -> v2
        relations:
          a b = a c
    """)
    report = check_hpa(a)
    assert not report.ok
    v = report.witnesses[0]
    assert v.side == 'left'
    assert v.r.labels == ('a',)
    assert {v.p.labels, v.p2.labels} == {('b',), ('c',)}


def test_right_cancellation_violation():
    a = from_document("""
        vertices: v0 v1 v2
        arrows:
          a: v0 -> v1
          b: v0 -> v1
          c: v1 -> v2
        relations:
          a c = b c
    """)
    report = check_hpa(a)
    assert not report.ok
    v = report.witnesses[0]
    assert v.side == 'right'
    assert v.r.labels == ('c',)
    assert {v.p.labels, v.p2.labels} == {('a',), ('b',)}



def test_library_entry_points_refuse_non_cancellative():
    a = from_document("""
        vertices: u m v
        arrows:
          x: u -> m
          y: u -> m
          z: m -> v
        relations:
          x z = y z
    """)
    for entry in (cellular_resolution,
                  babson_hersh_matching, greedy_internal_matching,
                  betti_table, koszul_check):
        with pytest.raises(NotCancellativeError,
                           match="right cancellation fails for r=z"):
            entry(a)

def test_two_square_quiver():
    a = from_document("""
        vertices: v0 v1 v2 v3
        arrows:
          a1: v0 -> v1
          a2: v0 -> v2
          b1: v1 -> v3
          b2: v2 -> v3
        relations:
          a1 b1 = a2 b2
    """)
    nonsingleton = [ws for ws in words_by_class(a).values() if len(ws) > 1]
    assert len(nonsingleton) == 1 and len(nonsingleton[0]) == 2
    assert check_hpa(a).ok


def test_relation_holds_after_every_prefix():
    # c = d identifies b c with b d as well as a c with a d
    a = from_document("""
        vertices: v0 v1 v2
        arrows:
          a: v0 -> v1
          b: v0 -> v1
          c: v1 -> v2
          d: v1 -> v2
        relations:
          c = d
    """)
    assert [c.rep.labels for c in a.classes if c.head == 'v2'
            and c.tail == 'v0'] == [('a', 'c'), ('b', 'c')]
    assert a.word_class(a.quiver.word('v0', ('b', 'd'))) == \
        a.word_class(a.quiver.word('v0', ('b', 'c')))


def test_free_algebra_singleton_classes():
    a = free_algebra(linear_quiver(3))
    assert all(len(ws) == 1 for ws in words_by_class(a).values())
    assert check_hpa(a).ok


def test_divide(p2):
    x = p2.arrow_class['x']
    yp = p2.arrow_class["y'"]
    e0 = p2.trivial_class['v0']
    xy = p2.mult(x, yp)
    assert p2.divide(e0, xy) == xy
    assert p2.divide(x, xy) == yp
    zz = p2.mult(p2.arrow_class['z'], p2.arrow_class["z'"])
    with pytest.raises(ValueError, match="not a subpath"):
        p2.divide(x, zz)
    # quotient is the unique witness: p * divide(p, q) == q
    for p in range(len(p2.classes)):
        for q, r in p2.quotients(p).items():
            assert p2.divide(p, q) == r
            assert p2.mult(p, r) == q


def test_open_interval(p2):
    x = p2.arrow_class['x']
    y = p2.arrow_class['y']
    xy = p2.mult(x, p2.arrow_class["y'"])
    assert sorted(open_interval(p2, xy)) == sorted([x, y])
    xx = p2.mult(x, p2.arrow_class["x'"])
    assert open_interval(p2, xx) == [x]
    assert open_interval(p2, x) == []


def test_tensor_a2_a2():
    a2 = free_algebra(linear_quiver(1))
    b2 = free_algebra(linear_quiver(1, vertex_prefix='w', arrow_prefix='b'))
    t = tensor(a2, b2)
    assert len(t.quiver.vertices) == 4
    assert len(t.quiver.arrows) == 4
    assert len(t.relations.groups) == 1
    assert len(t.classes) == 9  # 3 x 3
    assert check_hpa(t).ok


def test_tensor_class_count_is_product(p2):
    a2 = free_algebra(linear_quiver(1))
    t = tensor(p2, a2)
    assert len(t.classes) == len(p2.classes) * 3
    assert len(t.quiver.vertices) == 6
    assert len(t.quiver.arrows) == 6 * 2 + 3 * 1  # |Q1^A||Q0^B| + |Q0^A||Q1^B|


def test_tensor_hypercube_vertex_count():
    ks = [1, 2, 3]
    t = free_algebra(linear_quiver(ks[0]))
    for i, k in enumerate(ks[1:], start=1):
        t = tensor(t, free_algebra(
            linear_quiver(k, vertex_prefix=f"w{i}_", arrow_prefix=f"b{i}_")))
    assert len(t.quiver.vertices) == (1 + 1) * (2 + 1) * (3 + 1)


def test_bhk_algebra():
    a = bhk_algebra(8, [2, 2])
    assert len(a.quiver.vertices) == 16
    assert len(a.classes) == 100  # pairs of the 10 path classes of A_3
    assert check_hpa(a).ok
    with pytest.raises(ValueError):
        bhk_algebra(8, [3])


def test_a3a3_word_count(a3a3):
    # sum over word pairs of the shuffle counts C(l1+l2, l1)
    assert sum(map(len, words_by_class(a3a3).values())) == 226
    assert len(a3a3.classes) == 100


def assert_sweep_matches_reference(a):
    classes, step = forward_sweep(a.relations)
    assert a.classes == classes
    assert a.step == step


@settings(max_examples=150, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)))
def test_sweep_matches_the_forward_sweep(a):
    assert_sweep_matches_reference(a)


@pytest.mark.parametrize('path', sorted(FIXTURES.glob('*.quiver')) +
                         sorted(BENCHMARK_INPUTS.glob('*.quiver')),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_sweep_matches_the_forward_sweep_on_files(path):
    assert_sweep_matches_reference(load_algebra(path.name, path.parent))


def test_sweep_matches_the_forward_sweep_on_p5():
    assert_sweep_matches_reference(bondal_ruan_hpa(WeightData([[1] * 6])))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n),
    min_size=1, max_size=2)))
def test_sweep_matches_the_forward_sweep_on_toric_weights(rows):
    w = WeightData(rows)
    assume(check_cohomologically_proper(w))
    try:
        a = build_toric_hpa(w, sorted(image_phi(w)))
    except NotCancellativeError:
        assume(False)
    assert_sweep_matches_reference(a)


def test_relation_word_must_end_at_its_head():
    # x, y: a -> b, declared as words a -> c
    q = Quiver(['a', 'b', 'c'], [('x', 'a', 'b'), ('y', 'a', 'b')])
    with pytest.raises(RelationError) as e:
        RelationSet(q, [[PathWord('a', 'b', ('x',)), PathWord('a', 'b', ('y',))],
                        [PathWord('a', 'c', ('x',)), PathWord('a', 'c', ('y',))]])
    assert str(e.value) == "word x does not end at 'c'"
    assert e.value.group == 1


def test_relation_word_that_does_not_compose_is_refused():
    q = Quiver(['a', 'b'], [('x', 'a', 'b'), ('y', 'a', 'b')])
    with pytest.raises(QuiverError) as e:
        RelationSet(q, [[PathWord('a', 'b', ('x',)),
                         PathWord('a', 'b', ('y', 'x'))]])
    assert str(e.value) == (
        "word not composable: 'x' starts at 'a', expected 'b'")
    with pytest.raises(QuiverError, match="unknown vertex 'z'"):
        RelationSet(q, [[PathWord('z', 'z', ()), PathWord('z', 'z', ())]])
