import collections
from fractions import Fraction
import itertools
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hpa import toric
from hpa.toric import (WeightData, Degree, weight_data_from_json,
                       check_cohomologically_proper, image_phi, hom_monomials,
                       monomial_str, build_toric_hpa, bondal_ruan_hpa,
                       check_directable, degree_name, integer_kernel_basis,
                       lp_maximize)
from hpa.algebra import check_hpa, from_document
from hpa.dsl import emit_quiver
from hpa.realization import realization_homology
from hpa.resolution import cellular_resolution
from hpa.invariants import koszul_check, betti_table

from conftest import (cellular_homology, directable_by_permutations,
                      reference_lp_maximize, words_by_class)


P2 = WeightData([[1, 1, 1]])
P113 = WeightData([[1, 1, 3]])
F1 = WeightData([[1, 0, 1, 1], [0, 1, 0, 1]])
F3 = WeightData([[1, 0, 1, 3], [0, 1, 0, 1]])
F3_DEGREES = [(0, 0), (1, 0), (3, 1), (4, 1)]


def degs(w, frees):
    return {w.degree(f if isinstance(f, tuple) else (f,)) for f in frees}


def test_properness():
    assert check_cohomologically_proper(P2)
    assert check_cohomologically_proper(P113)
    assert check_cohomologically_proper(F1)
    assert check_cohomologically_proper(F3)
    assert not check_cohomologically_proper(WeightData([[1, -1]]))
    # zero rows: every nonnegative vector maps to zero
    assert not check_cohomologically_proper(WeightData([], [], ncols=2))


def test_image_phi_projective_spaces():
    assert image_phi(P2) == degs(P2, [0, 1, 2])
    assert image_phi(P113) == degs(P113, [0, 1, 2, 3, 4])
    with pytest.raises(ValueError):
        image_phi(WeightData([[1, -1]]))


def test_image_phi_hirzebruch():
    assert image_phi(F1) == degs(F1, [(0, 0), (1, 0), (1, 1), (2, 1)])
    # the half-open zonotope of the 3-twisted weights picks up six degrees;
    # the four-bundle collection below is a strict subset
    assert image_phi(F3) == degs(
        F3, [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (4, 1)])


def test_image_phi_column_permutation_invariant():
    assert image_phi(WeightData([[3, 1, 1]])) == image_phi(P113)


def test_image_phi_with_torsion():
    w = WeightData([[1, 1]], [(2, [0, 1])])
    assert image_phi(w) == {w.degree((0,), (0,)), w.degree((0,), (1,)),
                            w.degree((1,), (0,)), w.degree((1,), (1,))}


def test_hom_monomials():
    d0, d1 = P2.degree((0,)), P2.degree((1,))
    assert hom_monomials(P2, d0, d1) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert hom_monomials(P2, d0, d0) == {(0, 0, 0)}
    assert hom_monomials(P2, d1, d0) == set()
    e0, e3 = P113.degree((0,)), P113.degree((3,))
    assert hom_monomials(P113, e0, e3) == {
        (3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (0, 0, 1)}
    with pytest.raises(ValueError):
        hom_monomials(WeightData([[1, -1]]), Degree((0,)), Degree((0,)))


@st.composite
def proper_weights(draw):
    """Weight data with 1-4 variables, 1-2 nonnegative free rows and at
    most one torsion row.  A column that is zero in every free row gets a 1
    in the first, so the datum is proper."""
    n = draw(st.integers(1, 4))
    entries = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    free = draw(st.lists(entries, min_size=1, max_size=2))
    for j in range(n):
        if not any(row[j] for row in free):
            free[0][j] = 1
    torsion = draw(st.lists(st.tuples(st.integers(2, 3), entries),
                            max_size=1))
    return WeightData(free, torsion)


def brute_hom(w, d, e):
    """hom_monomials by enumerating a box: every column has a positive
    free entry, so no exponent exceeds the largest free part of e - d."""
    g = w.sub(e, d)
    box = range(max(g.free) + 1)
    return {m for m in itertools.product(box, repeat=w.ncols)
            if w.mu(m) == g}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hom_monomials_matches_a_brute_force_box(data):
    w = data.draw(proper_weights())
    assert check_cohomologically_proper(w)
    part = st.integers(0, 3)
    degrees = {w.degree(data.draw(st.lists(part, min_size=w.r,
                                           max_size=w.r)),
                        data.draw(st.lists(part, min_size=len(w.torsion),
                                           max_size=len(w.torsion))))
               for _ in range(data.draw(st.integers(1, 4)))}
    pairs = list(itertools.product(sorted(degrees), repeat=2))
    expected = {(d, e): brute_hom(w, d, e) for d, e in pairs}
    # the second round reads the LP answers the first one kept on w
    for _ in range(2):
        for d, e in data.draw(st.permutations(pairs)):
            assert hom_monomials(w, d, e) == expected[d, e]


def test_bondal_ruan_solves_each_lp_once(monkeypatch):
    asked = collections.Counter()
    real = toric.lp_maximize

    def counted(c, rows, rhs):
        asked[tuple(c), tuple(map(tuple, rows)), tuple(rhs)] += 1
        return real(c, rows, rhs)
    monkeypatch.setattr(toric, 'lp_maximize', counted)
    w = WeightData([[1, 1, 1, 1, 2]])
    bondal_ruan_hpa(w)
    solved = sum(asked.values())
    assert solved <= 82 and max(asked.values()) == 1
    # the report mode asks the properness question again: answered from w
    assert check_cohomologically_proper(w)
    assert sum(asked.values()) == solved


def test_build_toric_hpa_solves_each_difference_once(monkeypatch):
    differences = []
    real = toric.hom_monomials

    def counted(w, d, e):
        differences.append(w.sub(e, d))
        return real(w, d, e)
    monkeypatch.setattr(toric, 'hom_monomials', counted)
    w = WeightData([[1, 1, 1, 1, 2]])
    build_toric_hpa(w, [(k,) for k in range(6)])
    assert sorted(differences) == sorted(set(differences))
    assert len(differences) == 10  # e - d in -5..5 without 0


def test_lp_answers_follow_a_mutated_weight_datum():
    # answers are keyed by the whole question, rows included
    w = WeightData([[1, 1]])
    assert check_cohomologically_proper(w)
    w.free[0][1] = -1
    assert not check_cohomologically_proper(w)
    w = WeightData([[1, 1, 1]])
    d0, d2 = w.degree((0,)), w.degree((2,))
    assert len(hom_monomials(w, d0, d2)) == 6
    w.free[0][2] = 2
    assert hom_monomials(w, d0, d2) == {(2, 0, 0), (1, 1, 0), (0, 2, 0),
                                        (0, 0, 1)}


def test_monomial_str():
    assert monomial_str((1, 0, 0)) == 'x1'
    assert monomial_str((2, 1, 0)) == 'x1^2*x2'
    assert monomial_str((0, 0, 0)) == '1'


def test_build_p2_beilinson():
    a = build_toric_hpa(P2, [(0,), (1,), (2,)])
    assert len(a.quiver.vertices) == 3
    assert len(a.quiver.arrows) == 6
    assert len(a.relations.groups) == 3
    assert check_hpa(a).ok
    # same shape as the hand-written fixture
    assert len(a.classes) == 15


def test_bondal_ruan_p2_koszul_via_directability():
    a = bondal_ruan_hpa(P2)
    assert check_directable(a) == directable_by_permutations(a) == \
        ['x1', 'x2', 'x3']
    v = koszul_check(a)
    assert v.status == 'koszul-certified'
    assert v.method == 'directable'
    assert v.payload == {'variable_order': ['x1', 'x2', 'x3']}


def test_bondal_ruan_p113():
    a = bondal_ruan_hpa(P113)
    assert len(a.quiver.vertices) == 5
    assert len(a.quiver.arrows) == 10
    assert len(a.classes) == 39
    # the z arrow repeats on two vertex pairs, so both copies are tagged
    zs = [ar.label for ar in a.quiver.arrows if ar.label.startswith('x3')]
    assert sorted(zs) == ['x3@d(0)', 'x3@d(1)']
    x = cellular_resolution(a)
    h = cellular_homology(x)
    assert h[0] == (1, []) and h[1] == (2, []) and h[2] == (1, [])
    assert all(h[k] == (0, []) for k in h if k >= 3)


TWO_ROW = [
    [[1, 0, 1, 1], [0, 1, 0, 1]],  # F1
    [[1, 0, 1, 2], [0, 1, 0, 1]],  # F2
    [[1, 0, 1, 3], [0, 1, 0, 1]],  # F3
    [[1, 1, 0, 0], [0, 0, 1, 1]],  # P^1 x P^1
    [[1, 1, 1, 0], [0, 0, 1, 1]],
    [[1, 0, 1, 1, 1], [0, 1, 0, 1, 2]],
]


def _linear_bondal_ruan(w):
    """bondal_ruan_hpa(w) when it holds only linear arrows, else None."""
    try:
        return bondal_ruan_hpa(w)
    except ValueError as e:
        if 'is not a linear monomial' not in str(e):
            raise
    return None


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.lists(st.integers(1, 3), min_size=2, max_size=4).map(lambda r: [r]),
    st.sampled_from(TWO_ROW),
    st.integers(3, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        min_size=2, max_size=2))))
def test_bondal_ruan_realization_is_a_torus(rows):
    # n columns of free rank r: the homology of T^(n-r), binomial ranks and
    # no torsion; r is the rank of the rows, which random rows may have below
    # their number
    w = WeightData(rows)
    assume(check_cohomologically_proper(w))
    a = _linear_bondal_ruan(w)
    assume(a is not None)
    h, _, _ = realization_homology(a)
    n = len(integer_kernel_basis(w.free))
    assert len(h) > n
    assert h == {k: (math.comb(n, k), []) for k in h}


def test_bondal_ruan_f1_not_koszul():
    a = bondal_ruan_hpa(F1)
    assert len(a.quiver.vertices) == 4
    assert len(a.quiver.arrows) == 7
    assert check_directable(a) is directable_by_permutations(a) is None
    v = koszul_check(a)
    assert v.status == 'not-koszul'
    assert v.method == 'minimal-nonlinear'


def test_f3_collection():
    a = build_toric_hpa(F3, F3_DEGREES)
    assert len(a.quiver.vertices) == 4
    assert len(a.quiver.arrows) == 9
    # x1, x3; the three quadratics-with-x2; x1, x3; and two x4 arrows
    labels = sorted(ar.label for ar in a.quiver.arrows)
    assert sum(1 for lab in labels if lab.startswith('x4')) == 2
    assert len(a.classes) == 28
    assert sum(map(len, words_by_class(a).values())) == 41
    assert betti_table(a).totals() == [4, 9, 6, 1]


def test_product_weights_directable():
    # P1 x P1: two pairs of variables on independent factors
    w = WeightData([[1, 1, 0, 0], [0, 0, 1, 1]])
    a = bondal_ruan_hpa(w)
    assert len(a.quiver.vertices) == 4
    assert len(a.quiver.arrows) == 8
    assert check_directable(a) == directable_by_permutations(a) == \
        ['x1', 'x2', 'x3', 'x4']


# three unit weights e_A, e_B, e_C, each carried by three variables (A by
# x1-x3, B by x4-x6, C by x7-x9), on the staircase 0 < e_A < e_A + e_C <
# e_A + e_B + e_C: every arrow is a variable, and a composite x_a x_c or
# x_c x_b has no swap, so A comes before C and C before B
STAIRCASE = (WeightData([[1, 1, 1, 0, 0, 0, 0, 0, 0],
                         [0, 0, 0, 1, 1, 1, 0, 0, 0],
                         [0, 0, 0, 0, 0, 0, 1, 1, 1]]),
             [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)])


def test_directability_beyond_eight_variables():
    # neither the identity order nor its reverse, the two orders once tried
    # above eight variables, directs the staircase; the least order that
    # does is found, as the search over every permutation finds it first
    a = build_toric_hpa(*STAIRCASE)
    assert a.toric_weights.ncols == 9
    want = ['x1', 'x2', 'x3', 'x7', 'x8', 'x9', 'x4', 'x5', 'x6']
    assert check_directable(a) == directable_by_permutations(a) == want
    v = koszul_check(a)
    assert (v.status, v.method) == ('koszul-certified', 'directable')
    assert v.payload == {'variable_order': want}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.lists(st.integers(0, k - 1), min_size=1, max_size=6),
    st.lists(st.tuples(*[st.integers(0, 1)] * k), min_size=1, max_size=8,
             unique=True))))
def test_directability_matches_the_search_over_permutations(data):
    # unit weights, each variable on one of k directions, over any set of
    # corners of the unit k-cube: the topological sort gives the first
    # order the search over every permutation finds, or None with it; an
    # arrow that is not a single variable is refused by both
    direction, corners = data
    k = len(corners[0])
    w = WeightData([[int(d == r) for d in direction] for r in range(k)])
    a = build_toric_hpa(w, sorted(corners))
    if all(sum(m) == 1 for m in a.toric_monomials.values()):
        assert check_directable(a) == directable_by_permutations(a)
    else:
        with pytest.raises(ValueError, match='not variable-labeled'):
            check_directable(a)


def test_check_directable_refuses_loaded_quiver(f1):
    # a quiver file keeps no monomials, and arrow names are not trusted
    with pytest.raises(ValueError, match='weight data'):
        check_directable(f1)


def test_dsl_roundtrip():
    a = build_toric_hpa(F3, F3_DEGREES)
    text = emit_quiver(a.quiver, a.relations)
    b = from_document(text)
    assert len(b.classes) == len(a.classes)
    assert check_hpa(b).ok


def test_weight_data_json():
    data = {'free': [[1, 0, 1, 3], [0, 1, 0, 1]],
            'torsion': [],
            'degrees': [[0, 0], [1, 0], [3, 1], [4, 1]]}
    w, ds = weight_data_from_json(data)
    assert w.free == F3.free
    assert ds == [F3.degree(d) for d in F3_DEGREES]
    back = w.to_json()
    assert back['free'] == data['free']
    w2, ds2 = weight_data_from_json(
        {'free': [[1, 1]], 'torsion': [{'mod': 2, 'row': [0, 1]}]})
    assert ds2 is None
    assert w2.torsion == [(2, [0, 1])]


def test_degree_name():
    assert degree_name(Degree((3, 1))) == 'd(3,1)'
    assert degree_name(Degree((0,), (1,))) == 'd(0;1)'


def test_weight_data_validation():
    with pytest.raises(ValueError):
        WeightData([[1, 2], [1, 2, 3]])
    with pytest.raises(ValueError):
        WeightData([[1]], [(1, [1])])
    with pytest.raises(ValueError):
        WeightData([], [])


def test_lp_basic():
    # max x + y on the simplex x + y + s = 1
    status, val, x, den = lp_maximize([1, 1, 0], [[1, 1, 1]], [1])
    assert status == 'optimal' and Fraction(val, den) == 1

    # x + y = -1, x,y >= 0 infeasible
    status, *_ = lp_maximize([0, 0], [[1, 1]], [-1])
    assert status == 'infeasible'

    # unbounded direction
    status, *_ = lp_maximize([1], [[0]], [0])
    assert status == 'unbounded'


def test_lp_exactness():
    # optimum is the fraction 5/3, must come out exact
    status, val, x, den = lp_maximize([1, 0], [[3, 1]], [5])
    assert status == 'optimal'
    assert Fraction(val, den) == Fraction(5, 3)
    # on plain ints over a positive common denominator
    assert all(type(v) is int for v in [val, den, *x]) and den > 0


def test_lp_weight_barycenter():
    # a1 - a2 = 0 with a on the unit simplex: feasible at (1/2, 1/2)
    status, _, x, den = lp_maximize([0, 0], [[1, -1], [1, 1]], [0, 1])
    assert status == 'optimal'
    assert Fraction(x[0], den) == Fraction(1, 2) and \
        Fraction(x[1], den) == Fraction(1, 2)


def test_lp_terminates_on_beales_cycling_example():
    # Beale (1955), rows scaled to integers and the objective by 4: the
    # largest-coefficient rule cycles here, Bland's rule stops at the
    # optimum 4 * 5/4 with x4 = x6 = 1 and x1 = 3/4
    A = [[4, 0, 0, 1, -32, -4, 36],
         [0, 2, 0, 1, -24, -1, 6],
         [0, 0, 1, 0, 0, 1, 0]]
    c = [0, 0, 0, 3, -80, 2, -24]
    status, val, x, den = lp_maximize(c, A, [0, 0, 1])
    assert status == 'optimal' and Fraction(val, den) == 5
    assert [Fraction(v, den) for v in x] == [Fraction(3, 4), 0, 0, 1, 0, 1, 0]
    assert (status, Fraction(val, den), [Fraction(v, den) for v in x]) == \
        reference_lp_maximize(c, A, [0, 0, 1])


@st.composite
def lp_systems(draw):
    """max c.x s.t. A x = b, x >= 0 with at most 4 rows and 7 columns,
    entries in -3..3 and right-hand sides of either sign."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    entry = st.integers(-3, 3)
    c = draw(st.lists(entry, min_size=n, max_size=n))
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    return c, A, b


@settings(max_examples=300, deadline=None)
@given(lp_systems())
# driving an artificial out of the basis pivots on -2, so den turns sign
@example(([1, -2], [[1, 1], [1, -1]], [1, -1]))
def test_lp_matches_the_rational_simplex(system):
    # the integer tableau takes the pivots of the simplex on Fractions, so
    # status, optimum and solution all agree exactly
    status, val, x, den = lp_maximize(*system)
    expected = reference_lp_maximize(*system)
    if status == 'optimal':
        assert den > 0
        assert (status, Fraction(val, den),
                [Fraction(v, den) for v in x]) == expected
    else:
        assert (status, val, x, den) == (expected[0], None, None, None)
        assert expected[1:] == (None, None)
