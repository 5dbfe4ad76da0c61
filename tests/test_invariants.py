import pytest
from hypothesis import given, settings, strategies as st

from hpa import RING_Q, RING_Z, ring_fp
from hpa.algebra import check_hpa, from_document, tensor
from hpa.realization import (euler_characteristic, lex_shelling,
                              maximal_chains, spheres)
from hpa.resolution import cellular_resolution, check_resolution
from hpa.morse import (MorseComplex, babson_hersh_matching,
                       greedy_internal_matching)
from hpa.invariants import (OrderComplex, tor_table,
                            betti_table, el_shellable, koszul_check,
                            _elementary_divisors)

from conftest import (algebras, bounded_rp2_dsl,
                      cell_matching, classes_between, critical_cells,
                      el_every_subinterval, free_algebra,
                      interval_order_complex, linear_quiver, morse_pairs,
                      order_complex_homology, reference_el_shellable,
                      split_interval_algebras, tor_via_intervals,
                      tor_via_resolution, unshelled_classes)


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


def _nonzero(h, shift=0):
    return {i + shift: g for i, g in h.items() if g != (0, [])}


def test_reduced_homology_rp2():
    # the top class of the bounded RP^2: its open interval is the face
    # poset of the 6-vertex RP^2, whose order complex is the barycentric
    # subdivision, 31 vertices, 90 edges and 60 triangles; H~_1 = Z/2
    # shows in degree 3
    a = from_document(bounded_rp2_dsl())
    top = _class(a, 'bot', ('bot<1', '1<1.2', '1.2<1.2.4', '1.2.4<topA'))
    oc = OrderComplex(a, top)
    assert oc.counts() == [1, 31, 90, 60]
    assert _nonzero(oc.homology()) == {3: (0, [2])}
    assert _nonzero(oc.homology(RING_Q)) == {}
    assert _nonzero(oc.homology(ring_fp(2))) == {3: (1, []), 4: (1, [])}


def _check_order_complex_against_dfs(a):
    # degree i of the cells under their middle faces is H~_{i-2} of the
    # interval's order complex, which the DFS over all chains finds
    for p in range(len(a.classes)):
        if a.is_trivial(p):
            continue
        oc = OrderComplex(a, p)
        simplices = interval_order_complex(a, p)
        assert oc.counts() == [1] + [len(s) for s in simplices]
        for ring in (RING_Z, ring_fp(2)):
            assert (_nonzero(oc.homology(ring), -2) ==
                    order_complex_homology(simplices, ring))


@settings(max_examples=60, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)))
def test_reduced_homology_of_the_stratum_matches_dfs(a):
    _check_order_complex_against_dfs(a)


def test_reduced_homology_of_the_stratum_matches_dfs_on_fixtures(f1,
                                                                ungraded):
    for a in (f1, ungraded):
        _check_order_complex_against_dfs(a)


def test_interval_order_complex_p2(p2):
    xy = _class(p2, 'v0', ('x', "y'"))
    xx = _class(p2, 'v0', ('x', "x'"))
    arrow = _class(p2, 'v0', ('x',))
    assert [len(s) for s in interval_order_complex(p2, xy)] == [2]
    assert [len(s) for s in interval_order_complex(p2, xx)] == [1]
    assert interval_order_complex(p2, arrow) == []


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
    mc = MorseComplex(babson_hersh_matching(p2))
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
    c = cellular_resolution(a)
    d2, homotopy = check_resolution(c)
    assert d2.ok and homotopy.ok
    # both constructions leave arrow cells unmatched, so they are internal
    # on ungraded algebras too
    morse = [MorseComplex(build(a)) for build in
             (babson_hersh_matching, greedy_internal_matching)]
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
        assert total == euler_characteristic(cellular_resolution(a).counts())


def test_elementary_divisors():
    assert _elementary_divisors([6]) == [2, 3]
    assert _elementary_divisors([2, 2]) == [2, 2]
    assert _elementary_divisors([12, 2]) == [2, 3, 4]
    assert _elementary_divisors([]) == []


def _ranks(order):
    """Rank map of an arrow order whose items are labels or label groups."""
    return {label: i for i, item in enumerate(order)
            for label in ([item] if isinstance(item, str) else item)}


def test_el_certificate_p2(p2):
    xy = _class(p2, 'v0', ('x', "y'"))
    grouped = _ranks([['x', "x'"], ['y', "y'"], ['z', "z'"]])
    # a flat order on all six arrows makes both chains increasing, so the
    # interval is not EL under it; it is certified structurally instead,
    # as an antichain
    flat = _ranks([ar.label for ar in p2.quiver.arrows])
    chains, (by_group, by_arrow) = el_shellable(p2, [grouped, flat])
    assert by_group[xy]
    assert not by_arrow[xy]
    e = p2.trivial_class['v0']
    assert [len(ch) for ch in maximal_chains(p2, e, xy)] == [1, 1]
    assert chains[xy] == 2 and p2.length(xy) == 2
    assert koszul_check(p2).method == 'shellable-intervals'


def test_el_certificate_unknown_on_cubic(cubic):
    p = _class(cubic, 'p0', ('a1', 'c', 'b2'))
    # the interval is two disjoint edges; both candidate orders leave two
    # increasing maximal chains in [bottom, top]
    orders = (['a1', 'b1', 'c', 'a2', 'b2'], ['b1', 'a1', 'c', 'b2', 'a2'])
    _, verdicts = el_shellable(cubic, [_ranks(order) for order in orders])
    for ok in verdicts:
        assert not ok[p]


def _random_ranks(a, data):
    """A rank map on the arrows of a, with ties."""
    return {ar.label: data.draw(st.integers(0, 3)) for ar in a.quiver.arrows}


def _check_el_against_every_subinterval(a, data):
    ranks = _random_ranks(a, data)
    _, (ok,) = el_shellable(a, [ranks])
    for p, c in enumerate(a.classes):
        if not c.is_trivial:
            assert ok[p] == el_every_subinterval(a, p, ranks)


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True),
                 split_interval_algebras()), st.data())
def test_el_shellable_matches_every_subinterval(a, data):
    # the recursion over atoms and lower covers gives the verdict of
    # checking every subinterval, under random rank maps with ties
    if a.graded and check_hpa(a).ok:
        _check_el_against_every_subinterval(a, data)


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True),
                 split_interval_algebras()), st.data())
def test_el_shellable_matches_the_chain_enumerating_oracle(a, data):
    # the pass over the covers gives, class by class, the verdict of the
    # certificate that labels every maximal chain of every interval, under
    # up to two random rank maps with ties, and counts the maximal chains
    # up to 2
    if not (a.graded and check_hpa(a).ok):
        return
    labelings = [_random_ranks(a, data)
                 for _ in range(data.draw(st.integers(1, 2)))]
    chains, verdicts = el_shellable(a, labelings)
    oracles = [reference_el_shellable(a, ranks) for ranks in labelings]
    for p, c in enumerate(a.classes):
        if not c.is_trivial:
            e = a.trivial_class[c.tail]
            assert chains[p] == min(2, len(maximal_chains(a, e, p)))
            assert [ok[p] for ok in verdicts] == [el(p) for el in oracles]


@pytest.fixture(scope='module')
def larger(p2, f1, f3, p113):
    """Algebras that often hold an interval passing at its top but not in
    some subinterval, which random algebras seldom do."""
    def a(k):
        return free_algebra(linear_quiver(k, vertex_prefix='w',
                                          arrow_prefix='b'))
    return [f1, f3, p113, tensor(p2, a(1)),
            tensor(free_algebra(linear_quiver(2)), a(2))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_el_shellable_matches_every_subinterval_on_larger_algebras(larger,
                                                                   data):
    _check_el_against_every_subinterval(data.draw(st.sampled_from(larger)),
                                        data)


def _check_tor_table_against_intervals(a):
    # a pair that no class joins is missing, and its Tor is 0
    vertices = a.quiver.vertices
    for ring in (RING_Z, ring_fp(2)):
        table = tor_table(a, ring)
        for v in vertices:
            for w in vertices:
                assert (v, w) in table or not classes_between(a, v, w)
                assert table.get((v, w), {}) == tor_via_intervals(a, v, w,
                                                                  ring)


@settings(max_examples=60, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True),
                 split_interval_algebras()))
def test_tor_table_matches_interval_elimination(a):
    # a split-interval draw has an interval whose order does not shell,
    # which tor_table eliminates as its OrderComplex
    if check_hpa(a).ok:
        _check_tor_table_against_intervals(a)


def test_tor_table_matches_interval_elimination_on_larger_algebras(larger):
    for a in larger:
        _check_tor_table_against_intervals(a)


def _pairs_a_class_joins(a):
    vertices = a.quiver.vertices
    return [(v, w) for v in vertices for w in vertices
            if classes_between(a, v, w)]


def test_tor_table_keys_the_pairs_a_class_joins_in_vertex_order(larger, p2):
    # the bounded RP^2 declares topA before topB, but its class from bot to
    # topB comes first
    bounded = from_document(bounded_rp2_dsl())
    for a in larger + [p2, bounded]:
        assert list(tor_table(a)) == _pairs_a_class_joins(a)
    assert len(tor_table(p2)) == 6  # of 9 ordered pairs


def test_lex_shelling_refuses_the_non_shellable_interval_of_f1(f1):
    # tor_table eliminates this interval, the one class the Babson-Hersh
    # matching hands to coreduction
    p = _class(f1, 'd(0,0)', ('x3@d(0,0)', 'x2', 'x1@d(1,1)'))
    assert lex_shelling(f1, p) is None
    assert unshelled_classes(f1) == [p]
    assert tor_table(f1)['d(0,0)', 'd(2,1)'] == {2: (3, [])}


def test_lex_shelling_of_p2(p2):
    # the empty interval is one facet, its own restriction: Tor_1
    arrow = _class(p2, 'v0', ('x',))
    assert lex_shelling(p2, arrow) == [((), ())]
    assert spheres(p2, arrow) == (0,)
    # (e, x y') is two points: the second facet is critical, Tor_2
    xy = _class(p2, 'v0', ('x', "y'"))
    (f0, r0), (f1, r1) = sorted(lex_shelling(p2, xy))
    assert r0 == () and r1 == f1 and len(f1) == 1
    assert spheres(p2, xy) == (1,)


def test_babson_hersh_falls_back_on_cubic(cubic):
    m = babson_hersh_matching(cubic)
    p = _class(cubic, 'p0', ('a1', 'c', 'b2'))
    assert unshelled_classes(cubic) == [p]
    x = cellular_resolution(cubic)
    crit = critical_cells(cell_matching(x, morse_pairs(m, x)))
    assert MorseComplex(m).counts() == [len(cs) for cs in crit[:3]]
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
