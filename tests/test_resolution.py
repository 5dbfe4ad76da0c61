import pytest
from hypothesis import given, settings, strategies as st

from hpa import RING_Q, RING_Z, ring_fp
from hpa.algebra import check_hpa, free_algebra, tensor
from hpa.quiver import linear_quiver
from hpa.realization import build_realization, homology
from hpa.resolution import (BimoduleComplex, ResolutionError,
                            cellular_resolution, contracting_homotopy_check,
                            h_minus_one, multiply_augmentation,
                            simple_tensor_complex, verify_d_squared)

from conftest import (algebras, bimodule_chain_complex, reference_d_squared,
                      reference_homotopy_check)


@pytest.fixture(scope='module')
def res_p2(p2):
    return cellular_resolution(p2)


def test_degree_one_differential(p2, res_p2):
    # d [e_v < p] = p.[e_{h(p)}] - [e_v].p
    x = p2.arrow_class['x']
    e0 = p2.trivial_class['v0']
    e1 = p2.trivial_class['v1']
    cell = (e0, x)
    assert res_p2.terms(cell) == [
        (1, x, (e1,), e1),
        (-1, e0, (e0,), x),
    ]


def test_middle_faces_trivial(p2, res_p2):
    x = p2.arrow_class['x']
    xy = p2.mult(x, p2.arrow_class["y'"])
    e0 = p2.trivial_class['v0']
    cell = (e0, x, xy)
    terms = res_p2.terms(cell)
    assert len(terms) == 3
    s, l, f, r = terms[1]  # middle face
    assert s == -1 and p2.is_trivial(l) and p2.is_trivial(r)
    assert f == (e0, xy)
    # face 0 rebases and emits x on the left
    s, l, f, r = terms[0]
    assert s == 1 and l == x and p2.is_trivial(r)
    # top face emits the quotient on the right
    s, l, f, r = terms[2]
    assert s == 1 and p2.is_trivial(l) and r == p2.arrow_class["y'"]
    assert f == (e0, x)


def test_d_squared_p2(res_p2):
    report = verify_d_squared(res_p2)
    assert report.ok
    assert report.checked == 9  # the 2-cells


class _SignFlipped(BimoduleComplex):
    """Deliberately corrupt the sign of one middle face."""

    def __init__(self, base, victim):
        super().__init__(base.hpa, base.complex)
        self.victim = victim

    def terms(self, cell):
        out = super().terms(cell)
        if cell == self.victim:
            out = [(-s if i == 1 else s, l, f, r)
                   for i, (s, l, f, r) in enumerate(out)]
        return out


def test_d_squared_sign_flip_detected(p2, res_p2):
    victim = res_p2.generators(2)[0]
    broken = _SignFlipped(res_p2, victim)
    report = verify_d_squared(broken)
    assert not report.ok
    assert report.witnesses[0][0] == victim


class _TopCoefficientSwapped(BimoduleComplex):
    """Deliberately replace the top-face right coefficient of one cell by
    another class with the same ends."""

    def __init__(self, base, victim, wrong):
        super().__init__(base.hpa, base.complex)
        self.victim = victim
        self.wrong = wrong

    def terms(self, cell):
        out = super().terms(cell)
        if cell == self.victim:
            s, l, f, _ = out[-1]
            out = out[:-1] + [(s, l, f, self.wrong)]
        return out


def _same_report(got, ref):
    # repr pins the witness dicts' key order, which the CLI report prints
    return ((got.ok, got.checked, repr(got.witnesses)) ==
            (ref.ok, ref.checked, repr(ref.witnesses)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)), st.data())
def test_checks_match_references(a, data):
    if not check_hpa(a).ok:
        return
    c = cellular_resolution(a)
    assert _same_report(verify_d_squared(c), reference_d_squared(c))
    assert _same_report(contracting_homotopy_check(a, c),
                        reference_homotopy_check(a, c))
    cells = [cell for k in range(1, c.top + 1) for cell in c.generators(k)]
    if cells:
        victim = data.draw(st.sampled_from(cells))
        broken = _SignFlipped(c, victim)
        assert _same_report(verify_d_squared(broken),
                            reference_d_squared(broken))
        assert _same_report(contracting_homotopy_check(a, broken),
                            reference_homotopy_check(a, broken))


def test_checks_match_references_on_mutants(p2, res_p2):
    x, y = p2.arrow_class['x'], p2.arrow_class['y']
    victim = (p2.trivial_class['v0'], x)
    assert res_p2.terms(victim)[-1][3] == x
    mutants = [_SignFlipped(res_p2, res_p2.generators(2)[0]),
               _TopCoefficientSwapped(res_p2, victim, y)]
    for broken in mutants:
        got = contracting_homotopy_check(p2, broken)
        assert not got.ok
        assert _same_report(got, reference_homotopy_check(p2, broken))
        got = verify_d_squared(broken)
        assert not got.ok
        assert _same_report(got, reference_d_squared(broken))


def test_contracting_homotopy_p2(p2, res_p2):
    report = contracting_homotopy_check(p2, res_p2)
    assert report.ok
    # every (a, cell, b) triple plus one check per algebra class
    assert report.checked > len(p2.classes)


def test_homotopy_square():
    t = tensor(free_algebra(linear_quiver(1)),
               free_algebra(linear_quiver(1, vertex_prefix='w',
                                          arrow_prefix='b')))
    c = cellular_resolution(t)
    assert verify_d_squared(c).ok
    assert contracting_homotopy_check(t, c).ok


def test_augmentation_h_identity(p2, res_p2):
    for cls in range(len(p2.classes)):
        elem = h_minus_one(res_p2, {cls: 1})
        assert multiply_augmentation(res_p2, elem) == {cls: 1}


def test_tensor_simples_p2(p2, res_p2):
    same = simple_tensor_complex(res_p2, 'v0', 'v0', RING_Z)
    assert homology(same)[0] == (1, [])

    step = simple_tensor_complex(res_p2, 'v0', 'v1', RING_Z)
    h = homology(step)
    assert h[1] == (3, [])  # one generator per arrow
    assert h[0] == (0, [])

    two = simple_tensor_complex(res_p2, 'v0', 'v2', RING_Z)
    h = homology(two)
    assert h[2] == (3, [])  # one generator per relation group
    assert h[1] == (0, [])


def test_tensor_simples_free_quiver():
    # free algebra: Tor_1 counts arrows and everything above vanishes;
    # v0 -> v2 has no arrow, so all degrees die
    a = free_algebra(linear_quiver(2))
    c = cellular_resolution(a)
    h = homology(simple_tensor_complex(c, 'v0', 'v2', RING_Z))
    assert h == {0: (0, []), 1: (0, []), 2: (0, [])}
    h = homology(simple_tensor_complex(c, 'v0', 'v1', RING_Z))
    assert h[1] == (1, [])


def test_h0_is_the_algebra(p2, res_p2):
    for ring in (RING_Q, ring_fp(2), ring_fp(3)):
        full = bimodule_chain_complex(res_p2, ring)
        h = homology(full)
        assert h[0] == (len(p2.classes), [])
        assert all(h[k] == (0, []) for k in range(1, len(h)))


def test_homotopy_leaving_the_complex_is_a_typed_error(p2):
    # on the 1-skeleton, h of x.[e_v1 < y'] is the missing 2-cell
    # [e_v0 < x < x y']
    c = cellular_resolution(p2, build_realization(p2, max_dim=1))
    x = p2.arrow_class['x']
    e1 = p2.trivial_class['v1']
    cell = (e1, p2.arrow_class["y'"])
    with pytest.raises(ResolutionError, match="homotopy left the complex"):
        c.h_element({(x, cell, p2.trivial_class['v2']): 1})
    assert issubclass(ResolutionError, ValueError)
