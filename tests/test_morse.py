import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hpa import RING_Z, ring_fp
from hpa.algebra import check_hpa, free_algebra
from hpa.quiver import linear_quiver, Quiver
from hpa.realization import build_realization, cw_chain_complex, homology
from hpa.resolution import (cellular_resolution, simple_tensor_complex,
                            verify_d_squared)
from hpa.morse import (Matching, MatchingError, check_internal, check_acyclic,
                       morse_complex, babson_hersh_matching,
                       greedy_internal_matching, check_minimal, check_linear,
                       matching_from_json, morse_homology, _matched_entry)

from conftest import (algebras, gradient_path_counts, matching_to_json,
                      words_by_class)


def _cell(a, tail, *label_seqs):
    """Canonical chain from words given as label tuples (first entry ())."""
    return tuple(a.word_class(a.quiver.word(tail, tuple(ls)))
                 for ls in label_seqs)


def test_empty_matching_reproduces_resolution(p2):
    c = cellular_resolution(p2)
    m = Matching(c.complex, [])
    mc = morse_complex(c, m)
    assert mc.counts() == c.complex.counts()
    for k in range(1, mc.top + 1):
        for cell in mc.generators(k):
            assert set(mc.terms(cell)) == set(c.terms(cell))


def test_acyclicity_cycle_witness():
    # Free A4, stratum (v0, v4).  The open interval under the full path is
    # the chain a1 < a1a2 < a1a2a3; matching the three 3-cells against a
    # rotated choice of middle facets creates a genuine directed loop.
    a = free_algebra(linear_quiver(4))
    x = build_realization(a)
    e, w = (), ('a1', 'a2', 'a3', 'a4')
    cx, cy, cz = ('a1',), ('a1', 'a2'), ('a1', 'a2', 'a3')
    t_xy = _cell(a, 'v0', e, cx, cy, w)
    t_yz = _cell(a, 'v0', e, cy, cz, w)
    t_xz = _cell(a, 'v0', e, cx, cz, w)
    s_x = _cell(a, 'v0', e, cx, w)
    s_y = _cell(a, 'v0', e, cy, w)
    s_z = _cell(a, 'v0', e, cz, w)
    m = Matching(x, [(t_xy, s_x), (t_yz, s_y), (t_xz, s_z)])
    assert check_internal(m).ok
    rep = check_acyclic(m)
    assert not rep.ok
    cyc = rep.witnesses[0]
    # replayable: alternating bottom/top, closes up
    assert cyc[0] == cyc[-1]
    assert len(cyc) == 7
    for i in range(0, len(cyc) - 1, 2):
        bottom, top = cyc[i], cyc[i + 1]
        assert m.top_of[bottom] == top
        assert cyc[i + 2] in x.faces(top)
    c = cellular_resolution(a, x)
    with pytest.raises(MatchingError):
        morse_complex(c, m)


def test_internality_witnesses(p2):
    x = build_realization(p2)
    c = cellular_resolution(p2, x)
    xy = _cell(p2, 'v0', (), ('x',), ('x', "y'"))
    # boundary face 0 lives in a different stratum
    other = x.faces(xy)[0]
    m = Matching(x, [(xy, other)])
    rep = check_internal(m)
    assert not rep.ok
    assert any(reason == 'pair changes stratum' for reason, _ in rep.witnesses)
    with pytest.raises(MatchingError):
        morse_complex(c, m)

    edge = _cell(p2, 'v0', (), ('x',))
    vertex = _cell(p2, 'v0', ())
    m2 = Matching(x, [(edge, vertex)])
    rep2 = check_internal(m2)
    reasons = {reason for reason, _ in rep2.witnesses}
    assert 'vertex cell matched' in reasons
    assert 'arrow cell matched' in reasons


def test_matching_rejects_double_use(p2):
    x = build_realization(p2)
    top1 = _cell(p2, 'v0', (), ('x',), ('x', "y'"))
    top2 = _cell(p2, 'v0', (), ('y',), ('x', "y'"))
    mid = _cell(p2, 'v0', (), ('x', "y'"))
    with pytest.raises(MatchingError):
        Matching(x, [(top1, mid), (top2, mid)])


def test_babson_hersh_p2_criticals(p2):
    m = babson_hersh_matching(p2)
    x = m.complex
    assert not m.fallback_classes
    crit = [[cell for cell in x.cells[k] if not m.is_matched(cell)]
            for k in range(x.max_dim + 1)]
    assert [len(cs) for cs in crit] == [3, 6, 3]
    # critical 1-cells are exactly the arrow cells
    for cell in crit[1]:
        assert any(len(w.labels) == 1 for w in words_by_class(p2)[cell[1]])
    # critical 2-cells pick the lexicographically larger divisor
    names = sorted(x.format_cell(cell) for cell in crit[2])
    assert names == ["[e_v0 < y < x y']", "[e_v0 < z < x z']",
                     "[e_v0 < z < y z']"]


@pytest.mark.parametrize('name', ['p2', 'f3', 'p113'])
def test_babson_hersh_on_a_truncated_complex(request, name):
    # a subset of the full matching: the pairs whose top the capped
    # complex holds
    a = request.getfixturevalue(name)
    full = babson_hersh_matching(a)
    for max_dim in range(full.complex.max_dim):
        x = build_realization(a, max_dim=max_dim)
        m = babson_hersh_matching(a, complex_=x)
        assert m.pairs == [pr for pr in full.pairs if pr[0] in x.index]


def test_babson_hersh_fallback_on_a_truncated_complex(f1):
    # under --max-dim 0 F1's fallback class has no cell left; otherwise the
    # greedy fallback runs on the capped cells and is checked as usual
    for max_dim in range(3):
        m = babson_hersh_matching(f1, complex_=build_realization(
            f1, max_dim=max_dim))
        assert m.fallback_classes and m.internal.ok and m.acyclic.ok


def test_babson_hersh_p2_morse_complex(p2):
    c = cellular_resolution(p2)
    m = babson_hersh_matching(p2, complex_=c.complex)
    mc = morse_complex(c, m)
    assert mc.counts() == [3, 6, 3]
    assert verify_d_squared(mc).ok
    assert check_minimal(mc).ok
    assert check_linear(mc).ok
    # euler characteristic is preserved
    cell_chi = sum((-1) ** k * n for k, n in enumerate(c.complex.counts()))
    crit_chi = sum((-1) ** k * n for k, n in enumerate(mc.counts()))
    assert cell_chi == crit_chi == 0


def test_babson_hersh_quasi_isomorphism(p2):
    c = cellular_resolution(p2)
    m = babson_hersh_matching(p2, complex_=c.complex)
    mc = morse_complex(c, m)
    for v in p2.quiver.vertices:
        for w in p2.quiver.vertices:
            for ring in (('Z',), ('Fp', 2)):
                full = homology(simple_tensor_complex(c, v, w, ring))
                small = homology(simple_tensor_complex(mc, v, w, ring))
                ks = set(full) | set(small)
                for k in ks:
                    assert full.get(k, (0, [])) == small.get(k, (0, [])), \
                        (v, w, ring, k)


def test_greedy_free_quiver_criticals():
    # a free path algebra collapses to its vertices and arrows
    for q in (linear_quiver(3),
              Quiver(['u', 'v'], [('a', 'u', 'v'), ('b', 'u', 'v'),
                                  ('c', 'u', 'v')])):
        a = free_algebra(q)
        m = greedy_internal_matching(a)
        x = m.complex
        crit = [[cell for cell in x.cells[k] if not m.is_matched(cell)]
                for k in range(x.max_dim + 1)]
        assert len(crit[0]) == len(q.vertices)
        assert len(crit[1]) == len(q.arrows)
        assert all(len(cs) == 0 for cs in crit[2:])


def test_greedy_p2_agrees_with_resolution_homology(p2):
    c = cellular_resolution(p2)
    m = greedy_internal_matching(p2, complex_=c.complex)
    mc = morse_complex(c, m)
    assert verify_d_squared(mc).ok
    for v in p2.quiver.vertices:
        for w in p2.quiver.vertices:
            full = homology(simple_tensor_complex(c, v, w))
            small = homology(simple_tensor_complex(mc, v, w))
            for k in set(full) | set(small):
                assert full.get(k, (0, [])) == small.get(k, (0, []))


def test_gradient_path_counts_p2(p2):
    c = cellular_resolution(p2)
    m = babson_hersh_matching(p2, complex_=c.complex)
    counts = gradient_path_counts(c, m)
    # each critical 2-cell [e < y < x*y'] reaches the arrow cell [e < y]
    # directly and [e < x] through exactly one alternating path
    mc = morse_complex(c, m)
    for cell in mc.generators(2):
        targets = {t for (tau, t), n in counts.items() if tau == cell}
        assert len(targets) >= 2
        assert all(n >= 1 for (tau, t), n in counts.items() if tau == cell)


def test_matching_roundtrip_and_rebasing(p2):
    x = build_realization(p2)
    m = babson_hersh_matching(p2, complex_=x)
    data = matching_to_json(m)
    m2 = matching_from_json(data, x)
    assert m2.pairs == m.pairs

    # a chain written with nontrivial first entry is rebased, and an exact
    # duplicate pair collapses
    raw = {'pairs': [
        {'top': {'tail': 'v0', 'chain': [['x'], ['x', "y'"]]},
         'bottom': {'tail': 'v0', 'chain': [['x']]}},
        {'top': {'tail': 'v1', 'chain': [[], ["y'"]]},
         'bottom': {'tail': 'v1', 'chain': [[]]}},
    ]}
    m3 = matching_from_json(raw, x)
    assert len(m3.pairs) == 1
    top, bottom = m3.pairs[0]
    assert x.format_cell(top) == "[e_v1 < y']"
    assert x.format_cell(bottom) == '[e_v1]'


def test_check_linear_requires_grading():
    # relation of mixed length: a = bc makes the algebra ungraded
    q = Quiver(['u', 'm', 'v'],
               [('a', 'u', 'v'), ('b', 'u', 'm'), ('c', 'm', 'v')])
    from hpa.algebra import HPA, RelationSet
    a = HPA(RelationSet(q, [[q.word('u', ('a',)), q.word('u', ('b', 'c'))]]))
    assert not a.graded
    c = cellular_resolution(a)
    mc = morse_complex(c, Matching(c.complex, []))
    with pytest.raises(ValueError):
        check_linear(mc)


@pytest.mark.parametrize('boundary, sign_of', [
    # a cellular boundary: coefficients are signs
    (lambda cell: [(1, 'f'), (-1, 'g'), (1, 'f')], lambda coef: coef),
    # a bimodule boundary: coefficients are (sign, l, r)
    (lambda cell: [((1, 'l', 'r'), 'f'), ((-1, 'l', 'r'), 'f')],
     lambda coef: coef[0]),
])
def test_matched_entry_refuses_a_repeated_facet(boundary, sign_of):
    with pytest.raises(MatchingError, match="not unique"):
        _matched_entry(boundary, 't', 'f', sign_of)


@pytest.mark.parametrize('boundary, sign_of', [
    (lambda cell: [(2, 'f'), (-1, 'g')], lambda coef: coef),
    # a nontrivial left coefficient reads as sign 0
    (lambda cell: [((1, 'x', 'e'), 'f')], lambda coef: 0),
])
def test_matched_entry_refuses_a_non_invertible_coefficient(boundary,
                                                            sign_of):
    with pytest.raises(MatchingError, match="non-invertible"):
        _matched_entry(boundary, 't', 'f', sign_of)


def _acyclic_on_face_graph(m):
    """check_acyclic with its cycle search keyed by dimension alone, so that
    it follows every face edge, across (tail, head) strata too."""
    whole = SimpleNamespace(complex=m.complex, top_of=m.top_of,
                            internal=SimpleNamespace(ok=False))
    return check_acyclic(whole).ok


@settings(max_examples=80, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)))
def test_morse_homology_matches_elimination(a):
    if not check_hpa(a).ok:
        return
    x = build_realization(a)
    try:
        m = babson_hersh_matching(a, complex_=x)
    except MatchingError:
        assert not a.graded
        return
    assert _acyclic_on_face_graph(m)
    for ring in (RING_Z, ring_fp(2)):
        assert morse_homology(m, ring) == homology(cw_chain_complex(x, ring))


@pytest.mark.parametrize('name', ['p2', 'f3', 'p113', 'a3a3'])
def test_morse_homology_fixtures(request, name):
    a = request.getfixturevalue(name)
    m = babson_hersh_matching(a)
    assert _acyclic_on_face_graph(m)
    for ring in (RING_Z, ring_fp(2)):
        assert morse_homology(m, ring) == \
            homology(cw_chain_complex(m.complex, ring))


def test_morse_homology_checks_d_squared_on_every_cell(p2, monkeypatch):
    m = babson_hersh_matching(p2)
    x = m.complex
    seen = set()
    faces = x.faces

    def recorded(cell):
        seen.add(cell)
        return faces(cell)
    monkeypatch.setattr(x, 'faces', recorded)
    morse_homology(m)
    assert seen >= {c for k in range(2, x.max_dim + 1) for c in x.cells[k]}

    # facets 0 and 1 of a 2-cell in each other's place break d^2 = 0,
    # and that is caught before any reduction
    monkeypatch.setattr(x, 'faces', lambda cell: (
        [faces(cell)[1], faces(cell)[0]] + faces(cell)[2:]
        if len(cell) == 3 else faces(cell)))
    with pytest.raises(ValueError, match="d\\^2 != 0 at degree 2"):
        morse_homology(m)


def test_morse_homology_refuses_truncation(p2):
    x = build_realization(p2, max_dim=1)
    with pytest.raises(ValueError, match="untruncated"):
        morse_homology(Matching(x, []))
