import pytest
from hypothesis import given, settings

from hpa.algebra import check_hpa, from_document, free_algebra
from hpa.quiver import linear_quiver
from hpa.realization import (RING_Z, build_realization, euler_characteristic,
                             ring_fp)
from hpa.resolution import (cellular_resolution, contracting_homotopy_check,
                            verify_d_squared)
from hpa.morse import (MatchingError, babson_hersh_matching,
                       greedy_internal_matching, morse_complex)
from hpa.invariants import (OrderComplex, reduced_homology,
                            interval_order_complex, tor_via_intervals,
                            tor_via_resolution, betti_table,
                            el_shellability_certificate, koszul_check,
                            _elementary_divisors)

from conftest import algebras


CUBIC = """
vertices: p0 p1 p2 p3
arrows:
  a1: p0 -> p1
  b1: p0 -> p1
  c:  p1 -> p2
  a2: p2 -> p3
  b2: p2 -> p3
relations:
  a1 c b2 = b1 c a2
"""


@pytest.fixture(scope='module')
def cubic():
    return from_document(CUBIC)


def _class(a, tail, labels):
    return a.word_class(a.quiver.word(tail, tuple(labels)))


def test_reduced_homology_empty_and_points():
    empty = OrderComplex([], lambda x, y: False)
    assert reduced_homology(empty) == {-1: (1, [])}
    two = OrderComplex(['a', 'b'], lambda x, y: False)
    assert reduced_homology(two) == {0: (1, [])}
    one = OrderComplex(['a'], lambda x, y: False)
    assert reduced_homology(one) == {}


def test_reduced_homology_circle():
    # a, b both below c, d: the order complex is a 4-cycle
    below = {('a', 'c'), ('a', 'd'), ('b', 'c'), ('b', 'd')}
    oc = OrderComplex(['a', 'b', 'c', 'd'], lambda x, y: (x, y) in below)
    assert oc.counts() == [4, 4]
    assert reduced_homology(oc) == {1: (1, [])}
    assert reduced_homology(oc, ('Fp', 2)) == {1: (1, [])}


def test_interval_order_complex_p2(p2):
    xy = _class(p2, 'v0', ('x', "y'"))
    xx = _class(p2, 'v0', ('x', "x'"))
    arrow = _class(p2, 'v0', ('x',))
    assert interval_order_complex(p2, xy).counts() == [2]
    assert interval_order_complex(p2, xx).counts() == [1]
    assert interval_order_complex(p2, arrow).counts() == []


def test_tor_via_intervals_p2(p2):
    assert tor_via_intervals(p2, 'v0', 'v0') == {0: (1, [])}
    assert tor_via_intervals(p2, 'v0', 'v1') == {1: (3, [])}
    assert tor_via_intervals(p2, 'v1', 'v2') == {1: (3, [])}
    # three two-point intervals supply Tor_2; squares are contractible cones
    assert tor_via_intervals(p2, 'v0', 'v2') == {2: (3, [])}
    assert tor_via_intervals(p2, 'v1', 'v0') == {}


def test_tor_free_quiver_dies_above_one():
    a = free_algebra(linear_quiver(3))
    for v in a.quiver.vertices:
        for w in a.quiver.vertices:
            tor = tor_via_intervals(a, v, w)
            assert all(i <= 1 for i in tor)


def test_oracle_triangle_p2(p2):
    c = cellular_resolution(p2)
    m = babson_hersh_matching(p2, complex_=c.complex)
    mc = morse_complex(c, m)
    for v in p2.quiver.vertices:
        for w in p2.quiver.vertices:
            for ring in (('Z',), ('Fp', 2)):
                ref = tor_via_intervals(p2, v, w, ring)
                assert tor_via_resolution(p2, c, v, w, ring) == ref
                assert tor_via_resolution(p2, mc, v, w, ring) == ref


@settings(max_examples=60, deadline=None)
@given(algebras(with_relations=True))
def test_oracle_triangle_on_random_algebras(a):
    if not check_hpa(a).ok:
        return
    x = build_realization(a)
    c = cellular_resolution(a, x)
    assert verify_d_squared(c).ok
    assert contracting_homotopy_check(a, c).ok
    morse = []
    for build in (babson_hersh_matching, greedy_internal_matching):
        try:
            morse.append(morse_complex(c, build(a, complex_=x)))
        except MatchingError:
            assert not a.graded
    for ring in (RING_Z, ring_fp(2)):
        for v in a.quiver.vertices:
            for w in a.quiver.vertices:
                ref = tor_via_intervals(a, v, w, ring)
                assert tor_via_resolution(a, c, v, w, ring) == ref
                for mc in morse:
                    assert tor_via_resolution(a, mc, v, w, ring) == ref


def test_betti_table_p2(p2):
    bt = betti_table(p2)
    assert bt.totals() == [3, 6, 3]
    assert bt.warnings == []
    assert bt.table[2, 'v0', 'v2'] == 3
    csv_text = bt.to_csv()
    assert csv_text.splitlines()[0] == 'degree,tail,head,rank'
    assert len(csv_text.splitlines()) == 1 + 6
    data = bt.to_json()
    assert data['totals'] == [3, 6, 3]
    assert data['warnings'] == []


def test_betti_table_single_vertex():
    a = free_algebra(linear_quiver(0))
    bt = betti_table(a)
    assert bt.table == {(0, 'v0', 'v0'): 1}


def test_euler_count_through_tor(p2, cubic):
    for a in (p2, cubic):
        total = 0
        for v in a.quiver.vertices:
            for w in a.quiver.vertices:
                for i, (rank, _) in tor_via_intervals(a, v, w).items():
                    total += (-1) ** i * rank
        assert total == euler_characteristic(build_realization(a))


def test_elementary_divisors():
    assert _elementary_divisors([6]) == [2, 3]
    assert _elementary_divisors([2, 2]) == [2, 2]
    assert _elementary_divisors([12, 2]) == [2, 3, 4]
    assert _elementary_divisors([]) == []


def test_el_certificate_p2(p2):
    xy = _class(p2, 'v0', ('x', "y'"))
    grouped = [['x', "x'"], ['y', "y'"], ['z', "z'"]]
    cert = el_shellability_certificate(p2, xy, grouped)
    assert cert['method'] == 'el-labeling'
    # a flat order on all six arrows makes both chains increasing; the
    # interval is still certified, but only as a point set
    flat = [ar.label for ar in p2.quiver.arrows]
    cert2 = el_shellability_certificate(p2, xy, flat)
    assert cert2['method'] == 'point-set'


def test_el_certificate_unknown_on_cubic(cubic):
    p = _class(cubic, 'p0', ('a1', 'c', 'b2'))
    # the interval is two disjoint edges; both candidate orders leave two
    # increasing maximal chains in [bottom, top]
    for order in (['a1', 'b1', 'c', 'a2', 'b2'],
                  ['b1', 'a1', 'c', 'b2', 'a2']):
        assert el_shellability_certificate(cubic, p, order) is None


def test_babson_hersh_falls_back_on_cubic(cubic):
    m = babson_hersh_matching(cubic)
    p = _class(cubic, 'p0', ('a1', 'c', 'b2'))
    assert m.fallback_classes == [p]
    x = m.complex
    crit = [[cell for cell in x.cells[k] if not m.is_matched(cell)]
            for k in range(x.max_dim + 1)]
    # minimal: 4 vertices, 5 arrows, 1 generator for the cubic relation
    assert [len(cs) for cs in crit] == [4, 5, 1, 0]


def test_koszul_p2_and_free(p2):
    v = koszul_check(p2)
    assert v.status == 'koszul-certified'
    assert v.method == 'shellable-intervals'
    free = free_algebra(linear_quiver(3))
    assert koszul_check(free).status == 'koszul-certified'


def test_koszul_cubic_not_koszul(cubic):
    v = koszul_check(cubic)
    assert v.status == 'not-koszul'
    assert v.method == 'minimal-nonlinear'
    assert sum(v.payload['coefficient_lengths']) == 2


def test_koszul_refuses_ungraded():
    text = """
vertices: u m v
arrows:
  a: u -> v
  b: u -> m
  c: m -> v
relations:
  a = b c
"""
    a = from_document(text)
    assert not a.graded
    with pytest.raises(ValueError):
        koszul_check(a)


def test_tor_one_counts_arrows(p2, cubic):
    for a in (p2, cubic):
        arrow_counts = {}
        for ar in a.quiver.arrows:
            arrow_counts[ar.tail, ar.head] = \
                arrow_counts.get((ar.tail, ar.head), 0) + 1
        for (v, w), n in arrow_counts.items():
            assert tor_via_intervals(a, v, w)[1] == (n, [])
