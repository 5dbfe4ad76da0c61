import pytest

from hpa.toric import (WeightData, Degree, weight_data_from_json,
                       check_cohomologically_proper, image_phi, hom_monomials,
                       monomial_str, build_toric_hpa, bondal_ruan_hpa,
                       check_directable, degree_name)
from hpa.algebra import check_hpa, from_document
from hpa.dsl import emit_quiver
from hpa.realization import build_realization, cw_chain_complex, homology
from hpa.invariants import koszul_check, betti_table

from conftest import words_by_class


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
    res = check_directable(a)
    assert res.order is not None and res.exhaustive
    v = koszul_check(a)
    assert v.status == 'koszul-certified'
    assert v.method == 'directable'


def test_bondal_ruan_p113():
    a = bondal_ruan_hpa(P113)
    assert len(a.quiver.vertices) == 5
    assert len(a.quiver.arrows) == 10
    assert len(a.classes) == 39
    # the z arrow repeats on two vertex pairs, so both copies are tagged
    zs = [ar.label for ar in a.quiver.arrows if ar.label.startswith('x3')]
    assert sorted(zs) == ['x3@d(0)', 'x3@d(1)']
    x = build_realization(a)
    h = homology(cw_chain_complex(x))
    assert h[0] == (1, []) and h[1] == (2, []) and h[2] == (1, [])
    assert all(h[k] == (0, []) for k in h if k >= 3)


def test_bondal_ruan_f1_not_koszul():
    a = bondal_ruan_hpa(F1)
    assert len(a.quiver.vertices) == 4
    assert len(a.quiver.arrows) == 7
    res = check_directable(a)
    assert res.order is None and res.exhaustive
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
    assert check_directable(a).order is not None


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
