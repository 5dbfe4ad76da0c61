import copy
import functools

import pytest
from hypothesis import given, settings, strategies as st

from hpa import RING_Q, ring_fp
from hpa.algebra import check_hpa, tensor
from hpa.linalg import homology
from hpa.realization import build_realization
from hpa.morse import (MorseComplex, babson_hersh_matching,
                       greedy_internal_matching)
from hpa.resolution import (ResolutionError, cellular_resolution,
                            check_resolution, h_minus_one,
                            multiply_augmentation, verify_d_squared)

from conftest import (Mutant, algebras, bimodule_chain_complex, cell_faces,
                      cell_of, classes_between, free_algebra, linear_quiver,
                      reference_d_squared, reference_homotopy_check,
                      tensor_simples)


@pytest.fixture(scope='module')
def res_p2(p2):
    return cellular_resolution(p2)


def test_degree_one_differential(p2, res_p2):
    # d [e_v < p] = p.[e_{h(p)}] - [e_v].p
    x = p2.arrow_class['x']
    e0 = p2.trivial_class['v0']
    e1 = p2.trivial_class['v1']
    cell = functools.partial(cell_of, res_p2.complex)
    assert res_p2.terms(cell((e0, x))) == [
        (1, x, cell((e1,)), e1),
        (-1, e0, cell((e0,)), x),
    ]


def test_middle_faces_trivial(p2, res_p2):
    x = p2.arrow_class['x']
    xy = p2.mult(x, p2.arrow_class["y'"])
    e0 = p2.trivial_class['v0']
    chain = res_p2.complex.chain
    terms = res_p2.terms(cell_of(res_p2.complex, (e0, x, xy)))
    assert len(terms) == 3
    s, l, f, r = terms[1]  # middle face
    assert s == -1 and p2.is_trivial(l) and p2.is_trivial(r)
    assert chain(f) == (e0, xy)
    # face 0 rebases and emits x on the left
    s, l, f, r = terms[0]
    assert s == 1 and l == x and p2.is_trivial(r)
    # top face emits the quotient on the right
    s, l, f, r = terms[2]
    assert s == 1 and p2.is_trivial(l) and r == p2.arrow_class["y'"]
    assert chain(f) == (e0, x)


def test_d_squared_p2(res_p2):
    report = verify_d_squared(res_p2)
    assert report.ok
    assert report.checked == 9  # the 2-cells


def _sign_flipped(base, victim, index=1):
    """Flip the sign of one term of victim, a middle face by default."""
    return Mutant(base, victim, lambda ts: [
        (-s if i == index else s, l, f, r)
        for i, (s, l, f, r) in enumerate(ts)])


def _term_edited(base, victim, index, field, wrong):
    """Replace the left coefficient, the face or the right coefficient of
    one term of victim."""
    at = {'left': 1, 'face': 2, 'right': 3}[field]

    def edit(ts):
        ts = list(ts)
        term = list(ts[index])
        term[at] = wrong
        ts[index] = tuple(term)
        return ts
    return Mutant(base, victim, edit)


def _last_term_dropped(base, victim):
    return Mutant(base, victim, lambda ts: ts[:-1])


def _terms_reordered(base, victim):
    """The same sum as victim's terms, but no longer in the order of the
    face identities, so every check must still pass."""
    return Mutant(base, victim, lambda ts: ts[::-1])


def test_d_squared_sign_flip_detected(p2, res_p2):
    victim = res_p2.generators(2)[0]
    broken = _sign_flipped(res_p2, victim)
    report = verify_d_squared(broken)
    assert not report.ok
    assert report.witnesses[0][0] == res_p2.complex.chain(victim)


def _same_report(got, ref):
    # repr pins the witness dicts' key order, which the CLI report prints
    return ((got.ok, got.checked, repr(got.witnesses)) ==
            (ref.ok, ref.checked, repr(ref.witnesses)))


def _checked(c):
    """check_resolution(c), after asserting that its reports and
    verify_d_squared(c) match the references, the homotopy report None
    exactly when c.complex is truncated."""
    d2, homotopy = check_resolution(c)
    assert _same_report(d2, reference_d_squared(c))
    assert _same_report(verify_d_squared(c), d2)
    if c.complex.truncated:
        assert homotopy is None
    else:
        assert _same_report(homotopy, reference_homotopy_check(c.hpa, c))
    return d2, homotopy


def _all_ok(reports):
    return all(r is None or r.ok for r in reports)


def _none_ok(reports):
    return not any(r is None or r.ok for r in reports)


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)),
       st.one_of(st.none(), st.integers(0, 3)), st.data())
def test_checks_match_references(a, max_dim, data):
    # whole or capped; a capped complex is no resolution, so only d^2
    if not check_hpa(a).ok:
        return
    c = cellular_resolution(a, build_realization(a, max_dim=max_dim))
    assert _all_ok(_checked(c))
    cells = [cell for k in range(1, c.top + 1) for cell in c.generators(k)]
    if cells:
        victim = data.draw(st.sampled_from(cells))
        _checked(_sign_flipped(c, victim))
        assert _all_ok(_checked(_terms_reordered(c, victim)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)),
       st.one_of(st.none(), st.integers(0, 3)), st.data())
def test_morse_d_squared_matches_the_reference(a, max_dim, data):
    # Morse complexes have no cellular shape: verify_d_squared decides
    # them term by term, whole, capped and with one sign flipped
    if not check_hpa(a).ok:
        return
    c = cellular_resolution(a, build_realization(a, max_dim=max_dim))
    for build in (babson_hersh_matching, greedy_internal_matching):
        mc = MorseComplex(build(a, max_dim))
        got = verify_d_squared(mc)
        assert got.ok and _same_report(got, reference_d_squared(mc))
        cells = [cell for k in range(1, mc.top + 1)
                 for cell in mc.generators(k) if mc.terms(cell)]
        if cells:
            broken = Mutant(mc, data.draw(st.sampled_from(cells)),
                            lambda ts: [(-ts[0][0], *ts[0][1:]), *ts[1:]])
            assert _same_report(verify_d_squared(broken),
                                reference_d_squared(broken))


def test_one_walk_reads_each_dimension_once(p113, monkeypatch):
    # check_resolution takes the shapes of each dimension 1..top once, for
    # both checks; verify_d_squared takes none
    from hpa import resolution
    real, calls = resolution._shapes, []

    def shapes(c, k, trivial):
        calls.append(k)
        return real(c, k, trivial)
    monkeypatch.setattr(resolution, '_shapes', shapes)
    for max_dim in (None, 2, 1, 0):
        c = cellular_resolution(p113, build_realization(p113,
                                                        max_dim=max_dim))
        mc = MorseComplex(babson_hersh_matching(p113, max_dim))
        check_resolution(c)
        assert calls == list(range(1, c.top + 1))
        calls.clear()
        verify_d_squared(c)
        verify_d_squared(mc)
        assert calls == []


def _left_to_terms(c, monkeypatch):
    """[cells, rows]: what check_resolution(c) leaves to the term-by-term
    evaluation of d^2 and of the homotopy."""
    from hpa import resolution
    seen = []
    with monkeypatch.context() as m:
        for name in ('_d_squared', '_homotopy'):
            def spy(c, todo, *rest, real=getattr(resolution, name)):
                seen.append(list(todo))
                return real(c, seen[-1], *rest)
            m.setattr(resolution, name, spy)
        check_resolution(c)
    return seen


def test_reordered_terms_are_decided_by_accumulation(p2, res_p2,
                                                     monkeypatch):
    x, y_ = p2.arrow_class['x'], p2.arrow_class["y'"]
    cell = functools.partial(cell_of, res_p2.complex)
    one = cell((p2.trivial_class['v1'], y_))
    two = cell((p2.trivial_class['v0'], x, p2.mult(x, y_)))  # face 0: `one`

    def pairs_cancel(c, cell):
        return cell not in _left_to_terms(c, monkeypatch)[0]

    def fixes_generator(c, ac, cell):
        return (cell, ac) not in _left_to_terms(c, monkeypatch)[1]

    assert pairs_cancel(res_p2, two)
    assert fixes_generator(res_p2, x, one)
    broken = _terms_reordered(res_p2, one)
    # the shape tests fail on the reordered terms, so the verdicts below
    # come from the full accumulation
    assert not pairs_cancel(broken, two)
    assert not fixes_generator(broken, x, one)
    for victim in (one, two):
        assert _all_ok(_checked(_terms_reordered(res_p2, victim)))


def test_checks_match_references_on_mutants(p2, res_p2):
    x, y = p2.arrow_class['x'], p2.arrow_class['y']
    x_, y_, z_ = (p2.arrow_class[n] for n in ("x'", "y'", "z'"))
    cell = functools.partial(cell_of, res_p2.complex)
    victim = cell((p2.trivial_class['v0'], x))
    assert res_p2.terms(victim)[-1][3] == x
    # x ahead of `below` is a nontrivial ac; `square` is h_cell(x, below)
    below = cell((p2.trivial_class['v1'], y_))
    square = cell((p2.trivial_class['v0'], x, p2.mult(x, y_)))
    # each corrupts a term that one of the pairwise tests compares
    e0, e1 = p2.trivial_class['v0'], p2.trivial_class['v1']
    mutants = [_sign_flipped(res_p2, res_p2.generators(2)[0]),
               _sign_flipped(res_p2, victim, 0),
               _term_edited(res_p2, victim, -1, 'right', y),
               _term_edited(res_p2, victim, 1, 'face', cell((e1,))),
               _term_edited(res_p2, below, -1, 'right', z_),
               _term_edited(res_p2, below, -1, 'left', x_),
               _term_edited(res_p2, square, 0, 'left', y),
               _term_edited(res_p2, square, -1, 'face', cell((e0, y))),
               _last_term_dropped(res_p2, square),
               _last_term_dropped(res_p2, below)]
    for broken in mutants:
        assert _none_ok(_checked(broken))


def _other_class(a, cls):
    """A class with the same ends as cls, other than cls."""
    return next(q for q in classes_between(a, a.tail(cls), a.head(cls))
                if q != cls)


@pytest.mark.parametrize('dim', [3, 4])
def test_mutants_above_dimension_two_match_references(p113, dim):
    # P(1,1,3) has cells up to dimension 4; corrupt the face-0 left
    # coefficient, the top face's right coefficient and a middle face of a
    # cell of dimension 3, face 0 of a 4-cell and so with nontrivial left
    # classes ahead of it, and of one of dimension 4
    c = cellular_resolution(p113)
    assert c.counts() == [5, 34, 65, 52, 16]
    victim = c.terms(c.generators(4)[0])[0][2] if dim < 4 else \
        c.generators(4)[0]
    assert len(c.chain(victim)) == dim + 1
    terms = c.terms(victim)

    mutants = [_term_edited(c, victim, 0, 'left',
                            _other_class(p113, terms[0][1])),
               _term_edited(c, victim, -1, 'right',
                            _other_class(p113, terms[-1][3])),
               _sign_flipped(c, victim, dim // 2)]
    for broken in mutants:
        assert _none_ok(_checked(broken))


def _outcome(c):
    """check_resolution(c) as comparable data, or the error it raises."""
    try:
        reports = check_resolution(c)
    except ValueError as err:
        return type(err), str(err)
    return [None if r is None else (r.ok, r.checked, repr(r.witnesses))
            for r in reports]


def _capped(c):
    """c over a copy of its complex flagged truncated, on which
    check_resolution decides d^2 alone."""
    out = copy.copy(c)
    out.complex = copy.copy(c.complex)
    out.complex.truncated = True
    return out


@pytest.mark.parametrize('dim', [1, 2, 3])
def test_shape_tests_decide_as_the_full_evaluation(p113, dim, monkeypatch):
    # trivial coefficients at the wrong vertex, which the references cannot
    # multiply out, and a trivial or another face-0 coefficient: every
    # verdict, witness and error is the one that evaluating every cell and
    # row term by term gives.  The victim is the top face of a cell, so its
    # t and p show there too.
    from hpa import resolution
    c = cellular_resolution(p113)
    victim = c.complex.parent[c.generators(dim + 1)[-1]]
    (_, p, _, _), (_, el, _, er) = c.terms(victim)[:2]
    wrong = next(p113.trivial_class[v] for v in p113.quiver.vertices
                 if p113.trivial_class[v] not in (el, er))

    def units(at, positions):
        return Mutant(c, victim, lambda ts: [
            tuple(wrong if j == at and i in positions else v
                  for j, v in enumerate(t)) for i, t in enumerate(ts)])
    mutants = [units(1, range(1, dim + 1)),  # every t
               units(3, range(dim)),  # every u
               units(1, [dim]), units(3, [dim - 1]),  # one t, one u
               _term_edited(c, victim, 0, 'left', el),
               _term_edited(c, victim, 0, 'left', _other_class(p113, p))]

    def outcomes():
        # d^2 also on its own, as the homotopy raises on most of them
        return [(_outcome(m), _outcome(_capped(m))) for m in mutants]
    shaped = outcomes()
    monkeypatch.setattr(resolution, '_failing',
                        lambda test, n: list(range(n)))
    assert shaped == outcomes()


@pytest.mark.parametrize('w', ['d(0)', 'd(1)', 'd(3)', 'd(4)'])
def test_trivial_coefficient_at_a_wrong_vertex_is_zero(p113, w):
    # the 2-cell [e_d(2) < x2 < x2 x2], a face only as face 0 of its
    # cofaces, with the trivial left coefficient of its middle face moved to
    # another vertex: a product with that unit is zero in the algebra, so
    # the cell and its cofaces fail with the terms that remain, where the
    # reference cannot compose it at all
    c = cellular_resolution(p113)
    x = c.complex
    victim = cell_of(x, (29, 30, 31))
    assert p113.tail(x.last[victim]) == 'd(2)'
    broken = _term_edited(c, victim, 1, 'left', p113.trivial_class[w])
    got = verify_d_squared(broken)
    cofaces = [x.chain(t) for t in x.cells[3] if victim in cell_faces(x, t)]
    assert len(cofaces) == 5
    assert [cell for cell, _ in got.witnesses] == [x.chain(victim)] + cofaces
    assert got.witnesses[0][1] == {(31, (38,), 38): 1, (29, (29,), 31): -1}
    with pytest.raises(ValueError, match="classes not composable"):
        reference_d_squared(broken)


def test_contracting_homotopy_p2(p2, res_p2):
    _, report = check_resolution(res_p2)
    assert report.ok
    # every (a, cell, b) triple plus one check per algebra class
    assert report.checked > len(p2.classes)


def test_homotopy_square():
    t = tensor(free_algebra(linear_quiver(1)),
               free_algebra(linear_quiver(1, vertex_prefix='w',
                                          arrow_prefix='b')))
    c = cellular_resolution(t)
    assert _all_ok(check_resolution(c))


def test_augmentation_h_identity(p2, res_p2):
    for cls in range(len(p2.classes)):
        elem = h_minus_one(res_p2, {cls: 1})
        assert multiply_augmentation(res_p2, elem) == {cls: 1}


def test_tensor_simples_p2(p2, res_p2):
    same = tensor_simples(res_p2, 'v0', 'v0')
    assert homology(*same)[0] == (1, [])

    step = tensor_simples(res_p2, 'v0', 'v1')
    h = homology(*step)
    assert h[1] == (3, [])  # one generator per arrow
    assert h[0] == (0, [])

    two = tensor_simples(res_p2, 'v0', 'v2')
    h = homology(*two)
    assert h[2] == (3, [])  # one generator per relation group
    assert h[1] == (0, [])


def test_tensor_simples_free_quiver():
    # free algebra: Tor_1 counts arrows and everything above vanishes;
    # v0 -> v2 has no arrow, so all degrees die
    a = free_algebra(linear_quiver(2))
    c = cellular_resolution(a)
    h = homology(*tensor_simples(c, 'v0', 'v2'))
    assert h == {0: (0, []), 1: (0, []), 2: (0, [])}
    h = homology(*tensor_simples(c, 'v0', 'v1'))
    assert h[1] == (1, [])


def test_h0_is_the_algebra(p2, res_p2):
    for ring in (RING_Q, ring_fp(2), ring_fp(3)):
        h = homology(*bimodule_chain_complex(res_p2), ring)
        assert h[0] == (len(p2.classes), [])
        assert all(h[k] == (0, []) for k in range(1, len(h)))


def test_homotopy_leaving_the_complex_is_a_typed_error(p2):
    # on the 1-skeleton, h of x.[e_v1 < y'] is the missing 2-cell
    # [e_v0 < x < x y']
    c = cellular_resolution(p2, build_realization(p2, max_dim=1))
    x = p2.arrow_class['x']
    e1 = p2.trivial_class['v1']
    cell = cell_of(c.complex, (e1, p2.arrow_class["y'"]))
    with pytest.raises(ResolutionError, match="homotopy left the complex"):
        c.h_element({(x, cell, p2.trivial_class['v2']): 1})
    assert issubclass(ResolutionError, ValueError)
