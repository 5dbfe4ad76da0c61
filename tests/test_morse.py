import json
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hpa import RING_Z, ring_fp
from hpa.algebra import check_hpa
from hpa.quiver import Quiver
from hpa.realization import build_realization, homology, lex_shelling
from hpa.resolution import (BimoduleComplex, cellular_resolution,
                            verify_d_squared)
from hpa.morse import (Matching, MatchingError, check_internal, check_acyclic,
                       morse_complex, babson_hersh_matching,
                       greedy_internal_matching, check_minimal, check_linear,
                       load_matching, matching_from_json, morse_homology,
                       _find_cycle)

from conftest import (FIXTURES, Mutant, algebras, cellular_homology,
                      critical_cells, free_algebra, gradient_path_counts,
                      linear_quiver, matching_to_json, reference_bh_pairs,
                      reference_bh_pairs_by_sets, reference_check_acyclic,
                      reference_lex_shelling, reference_morse_terms,
                      tensor_simples, words_by_class)


def _cell(x, tail, *label_seqs):
    """The cell of the canonical chain of words given as label tuples (first
    entry ())."""
    a = x.hpa
    return x.cell(tuple(a.word_class(a.quiver.word(tail, tuple(ls)))
                        for ls in label_seqs))


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
    t_xy = _cell(x, 'v0', e, cx, cy, w)
    t_yz = _cell(x, 'v0', e, cy, cz, w)
    t_xz = _cell(x, 'v0', e, cx, cz, w)
    s_x = _cell(x, 'v0', e, cx, w)
    s_y = _cell(x, 'v0', e, cy, w)
    s_z = _cell(x, 'v0', e, cz, w)
    m = Matching(x, [(t_xy, s_x), (t_yz, s_y), (t_xz, s_z)])
    assert check_internal(m).ok
    rep = check_acyclic(m)
    assert not rep.ok
    cyc = rep.witnesses[0]
    # the first cycle closed from the least bottom
    assert cyc == [s_x, t_xy, s_y, t_yz, s_z, t_xz, s_x]
    assert rep.witnesses == reference_check_acyclic(m).witnesses
    # replayable: alternating bottom/top, closes up
    assert cyc[0] == cyc[-1]
    assert len(cyc) == 7
    for i in range(0, len(cyc) - 1, 2):
        bottom, top = cyc[i], cyc[i + 1]
        assert m.top[bottom] == top
        assert cyc[i + 2] in x.faces(top)
    c = cellular_resolution(a, x)
    with pytest.raises(MatchingError):
        morse_complex(c, m)


def test_internality_witnesses(p2):
    x = build_realization(p2)
    c = cellular_resolution(p2, x)
    xy = _cell(x, 'v0', (), ('x',), ('x', "y'"))
    # boundary face 0 lives in a different stratum
    other = x.faces(xy)[0]
    m = Matching(x, [(xy, other)])
    rep = check_internal(m)
    assert not rep.ok
    assert any(reason == 'pair changes stratum' for reason, _ in rep.witnesses)
    with pytest.raises(MatchingError):
        morse_complex(c, m)

    # so does the top face, through its head
    m1 = Matching(x, [(xy, x.faces(xy)[-1])])
    assert ('pair changes stratum', f"{x.format_cell(xy)} ~ "
            f"{x.format_cell(x.faces(xy)[-1])}") in check_internal(m1).witnesses

    edge = _cell(x, 'v0', (), ('x',))
    vertex = _cell(x, 'v0', ())
    m2 = Matching(x, [(edge, vertex)])
    rep2 = check_internal(m2)
    reasons = {reason for reason, _ in rep2.witnesses}
    assert 'vertex cell matched' in reasons
    assert 'arrow cell matched' in reasons


def test_matching_rejects_double_use(p2):
    x = build_realization(p2)
    top1 = _cell(x, 'v0', (), ('x',), ('x', "y'"))
    top2 = _cell(x, 'v0', (), ('y',), ('x', "y'"))
    mid = _cell(x, 'v0', (), ('x', "y'"))
    with pytest.raises(MatchingError):
        Matching(x, [(top1, mid), (top2, mid)])
    # a top used twice, and a top that is then matched as a bottom
    edge, vertex = x.faces(top1)[-1], _cell(x, 'v0', ())
    for pairs, cell in [([(top1, mid), (top1, edge)], top1),
                        ([(edge, vertex), (top1, edge)], edge)]:
        with pytest.raises(MatchingError, match=re.escape(
                f"cell {x.format_cell(cell)} matched twice")):
            Matching(x, pairs)


def test_matching_refuses_unknown_cells_and_bottoms_that_are_no_facets(p2):
    x = build_realization(p2)
    top = _cell(x, 'v0', (), ('x',), ('x', "y'"))
    other = _cell(x, 'v0', (), ('y',))
    assert other not in x.faces(top)
    with pytest.raises(MatchingError, match="is not a facet of"):
        Matching(x, [(top, other)])
    for cell in (-1, len(x.last)):
        with pytest.raises(MatchingError, match=f"^unknown cell {cell}$"):
            Matching(x, [(top, cell)])


def test_babson_hersh_p2_criticals(p2):
    m = babson_hersh_matching(p2)
    x = m.complex
    assert not m.fallback_classes
    crit = critical_cells(m)
    assert [len(cs) for cs in crit] == [3, 6, 3]
    # critical 1-cells are exactly the arrow cells
    for cell in crit[1]:
        assert any(len(w.labels) == 1
                   for w in words_by_class(p2)[x.chain(cell)[1]])
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
        chains = [tuple(map(full.complex.chain, pr)) for pr in full.pairs]
        assert [tuple(map(x.chain, pr)) for pr in m.pairs] == \
            [pr for pr in chains if x.cell(pr[0]) is not None]


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
                full = homology(*tensor_simples(c, v, w), ring)
                small = homology(*tensor_simples(mc, v, w), ring)
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
        crit = critical_cells(m)
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
            full = homology(*tensor_simples(c, v, w))
            small = homology(*tensor_simples(mc, v, w))
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


@pytest.mark.parametrize('name, build, max_dim', [
    ('p2', babson_hersh_matching, None),
    ('f1', babson_hersh_matching, None),  # one class by greedy fallback
    ('f3', 'f3_matching.json', None),
    ('p113', babson_hersh_matching, None),
    ('a3a3', babson_hersh_matching, None),
    ('ungraded', babson_hersh_matching, None),
    ('a3a3', babson_hersh_matching, 3),
    ('p113', greedy_internal_matching, None),
], ids=['p2', 'f1', 'f3-file', 'p113', 'a3a3', 'ungraded', 'a3a3-max-dim-3',
        'p113-greedy'])
def test_morse_differential_is_the_sum_over_gradient_paths(request, name,
                                                          build, max_dim):
    a = request.getfixturevalue(name)
    x = build_realization(a, max_dim=max_dim)
    if isinstance(build, str):
        m = load_matching(FIXTURES / build, x)
    else:
        m = build(a, complex_=x)
    assert x.truncated == (max_dim is not None)
    assert bool(getattr(m, 'fallback_classes', None)) == (name == 'f1')
    c = BimoduleComplex(a, x)
    mc = morse_complex(c, m)
    critical = [tau for k in range(1, mc.top + 1)
                for tau in mc.generators(k)]
    # some gradient path goes through a matched pair, except on the
    # ungraded algebra: no face of its one critical 2-cell is matched
    assert any(m.top[f] >= 0 for tau in critical
               for f in x.faces(tau)) == (name != 'ungraded')
    for tau in critical:
        assert mc.terms(tau) == reference_morse_terms(c, m, tau)


def _reached_pair(x, m):
    """A pair (top, bottom) of m whose bottom is a face of a critical cell,
    so that morse_complex reads the terms of its top."""
    return next((m.top[f], f) for cells in critical_cells(m)[2:]
                for tau in cells for f in x.faces(tau) if m.top[f] >= 0)


def _with_matched_term_edited(a, edit):
    """morse_complex of the resolution of a under its Babson-Hersh matching,
    with the terms ts of one reached top replaced by edit(ts, bottom)."""
    c = cellular_resolution(a)
    m = babson_hersh_matching(a, complex_=c.complex)
    top, bottom = _reached_pair(c.complex, m)
    morse_complex(c, m)  # the unedited resolution is accepted
    return morse_complex(Mutant(c, top, lambda ts: edit(ts, bottom)), m)


def test_morse_complex_refuses_a_repeated_matched_facet(p2):
    with pytest.raises(MatchingError,
                       match="^matched facet not unique in boundary$"):
        _with_matched_term_edited(
            p2, lambda ts, b: ts + [t for t in ts if t[2] == b])


@pytest.mark.parametrize('edit', [
    # a nontrivial left coefficient: class 1, an arrow
    lambda ts, b: [(s, 1 if f == b else l, f, r) for s, l, f, r in ts],
    # sign 2, classes trivial
    lambda ts, b: [(2 if f == b else s, l, f, r) for s, l, f, r in ts],
], ids=['nontrivial-left', 'sign-2'])
def test_morse_complex_refuses_a_non_invertible_incidence(p2, edit):
    assert p2.classes[1].lengths == {1}
    with pytest.raises(MatchingError, match="^matched pair has a "
                       "non-invertible incidence coefficient$"):
        _with_matched_term_edited(p2, edit)


def _acyclic_on_face_graph(m):
    """check_acyclic with its cycle search keyed by dimension alone, so that
    it follows every face edge, across (tail, head) strata too."""
    whole = SimpleNamespace(complex=m.complex, top=m.top, pairs=m.pairs,
                            internal=SimpleNamespace(ok=False))
    return check_acyclic(whole).ok


@settings(max_examples=80, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)),
       st.one_of(st.none(), st.integers(0, 3)))
def test_morse_homology_matches_elimination(a, max_dim):
    # graded or not, truncated or not: both constructions leave arrow cells
    # unmatched, and a capped complex reports the degrees below its cap
    if not check_hpa(a).ok:
        return
    x = build_realization(a, max_dim=max_dim)
    for build in (babson_hersh_matching, greedy_internal_matching):
        m = build(a, complex_=x)
        assert _acyclic_on_face_graph(m)
        for ring in (RING_Z, ring_fp(2)):
            assert morse_homology(m, ring) == cellular_homology(x, ring)


@pytest.mark.parametrize('name', ['p2', 'f3', 'p113', 'a3a3'])
def test_morse_homology_fixtures(request, name):
    a = request.getfixturevalue(name)
    m = babson_hersh_matching(a)
    assert _acyclic_on_face_graph(m)
    for ring in (RING_Z, ring_fp(2)):
        assert morse_homology(m, ring) == cellular_homology(m.complex, ring)


def test_morse_homology_checks_d_squared_on_every_cell(p2, p113,
                                                     monkeypatch):
    # one face of the last cell of each dimension corrupted: caught at that
    # dimension, before any reduction
    for a in (p2, p113):
        m = babson_hersh_matching(a)
        x = m.complex
        for k in range(2, x.max_dim + 1):
            face = list(x.face)
            i = x.at[x.cells[k][-1]] + 1
            face[i] = next(c for c in x.cells[k - 1] if c != face[i])
            monkeypatch.setattr(x, 'face', face)
            with pytest.raises(ValueError,
                               match=f"d\\^2 != 0 at degree {k}"):
                morse_homology(m)
            monkeypatch.undo()
        morse_homology(m)

    # facets 0 and 1 of a 2-cell in each other's place break d^2 = 0,
    # and that is caught before any reduction
    m = babson_hersh_matching(p2)
    x = m.complex
    face = list(x.face)
    for cell in x.cells[2]:
        i = x.at[cell]
        face[i], face[i + 1] = face[i + 1], face[i]
    monkeypatch.setattr(x, 'face', face)
    with pytest.raises(ValueError, match="d\\^2 != 0 at degree 2"):
        morse_homology(m)


@pytest.mark.parametrize('name', ['p2', 'f1', 'f3', 'p113'])
def test_morse_homology_of_a_truncated_complex(request, name):
    # the degrees below the cap, as elimination gives them
    a = request.getfixturevalue(name)
    top = build_realization(a).max_dim
    for max_dim in range(top + 1):
        x = build_realization(a, max_dim=max_dim)
        assert x.truncated == (max_dim < top)
        h = morse_homology(babson_hersh_matching(a, complex_=x))
        assert h == cellular_homology(x)
        assert list(h) == list(range(max_dim + (max_dim == top)))


def _check_shellings_and_pairs(a, x):
    """lex_shelling and the Babson-Hersh pairs against their references."""
    shelled = True
    for p in range(len(a.classes)):
        if not a.is_trivial(p):
            ref = reference_lex_shelling(a, p)
            assert lex_shelling(a, p) == ref
            shelled &= ref is not None
    ref = reference_bh_pairs(a, x)
    assert sorted(ref) == sorted(reference_bh_pairs_by_sets(a, x))
    # internal and acyclic on ungraded algebras too
    m = babson_hersh_matching(a, complex_=x)
    pairs = [tuple(map(x.chain, pr)) for pr in m.pairs]
    assert bool(m.fallback_classes) == (not shelled)
    if m.fallback_classes:
        # coreduction and augmentation add pairs for the other classes
        assert set(ref) <= set(pairs)
    else:
        assert sorted(pairs) == sorted(ref)
    return m


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)),
       st.one_of(st.none(), st.integers(0, 3)))
def test_shellings_and_pairs_match_references(a, max_dim):
    if check_hpa(a).ok:
        _check_shellings_and_pairs(a, build_realization(a, max_dim=max_dim))


@pytest.mark.parametrize('name', ['p2', 'f1', 'f3', 'p113', 'a3a3', 'p11112',
                                  'ungraded'])
def test_shellings_and_pairs_match_references_on_fixtures(request, name):
    a = request.getfixturevalue(name)
    x = build_realization(a)
    m = _check_shellings_and_pairs(a, x)
    # F1 has the one interval that its lexicographic order does not shell
    assert bool(m.fallback_classes) == (name == 'f1')
    assert all(lex_shelling(a, p) is None for p in m.fallback_classes)
    for max_dim in range(max(4, x.max_dim)):
        _check_shellings_and_pairs(a, build_realization(a, max_dim=max_dim))


def _random_internal_matching(x, rng):
    """Tops of dimension >= 2, each with one middle facet that is not an
    arrow cell, no cell used twice.  Mostly the tops come from the (tail,
    head) stratum of a random cell of dimension >= 3, since a cycle needs a
    top with two middle faces and stays in one stratum."""
    arrows = set(x.hpa.arrow_class.values())
    tops = [c for k in range(2, x.max_dim + 1) for c in x.cells[k]]
    if rng.random() < 0.8:
        c = rng.choice([c for c in tops if len(x.chain(c)) >= 4])
        tops = [t for t in tops
                if (x.tail(t), x.head(t)) == (x.tail(c), x.head(c))]
    tops = rng.sample(tops, rng.randint(1, len(tops)))
    used = set()
    pairs = []
    for top in tops:
        bottoms = [f for f in x.faces(top)[1:-1] if f not in used
                   and not (len(x.chain(f)) == 2 and x.chain(f)[1] in arrows)]
        if top in used or not bottoms:
            continue
        bottom = rng.choice(bottoms)
        used.update((top, bottom))
        pairs.append((top, bottom))
    return Matching(x, pairs)


@pytest.mark.parametrize('name', ['a4', 'f3', 'p113', 'a3a3'])
def test_check_acyclic_matches_reference_on_random_matchings(request, name):
    a = free_algebra(linear_quiver(4)) if name == 'a4' else \
        request.getfixturevalue(name)
    x = build_realization(a)
    rng = random.Random(name)
    cyclic = 0
    for _ in range(200):
        m = _random_internal_matching(x, rng)
        assert check_internal(m).ok
        rep, ref = check_acyclic(m), reference_check_acyclic(m)
        assert (rep.ok, rep.witnesses, rep.checked) == \
            (ref.ok, ref.witnesses, ref.checked)
        # the dimension-keyed search, as for a non-internal matching
        whole = SimpleNamespace(complex=x, top=m.top, pairs=m.pairs,
                                internal=SimpleNamespace(ok=False))
        rep, ref = check_acyclic(whole), reference_check_acyclic(whole)
        assert (rep.ok, rep.witnesses) == (ref.ok, ref.witnesses)
        cyclic += not rep.ok
    assert cyclic


@pytest.mark.parametrize('name', ['a4', 'a3a3'])
def test_find_cycle_leaves_its_colours_cleared(request, name):
    # one colour array for every search, as _augment keeps it: each search
    # leaves it zeroed, whether it closes a cycle or not, so the next one
    # decides as a search on a fresh array does
    a = free_algebra(linear_quiver(4)) if name == 'a4' else \
        request.getfixturevalue(name)
    x = build_realization(a)
    rng = random.Random(name)
    color = bytearray(len(x.last))
    outcomes = set()
    for _ in range(100):
        m = _random_internal_matching(x, rng)
        bottoms = sorted(b for _, b in m.pairs)
        for starts in (bottoms, bottoms[::-1]):
            cycle = _find_cycle(x, m.top, starts, True, color)
            assert not any(color)
            assert cycle == _find_cycle(x, m.top, starts, True,
                                        bytearray(len(x.last)))
            outcomes.add(cycle is None)
        assert (cycle is None) == reference_check_acyclic(m).ok
    assert outcomes == {True, False}


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)))
def test_only_the_middle_faces_keep_the_stratum(a):
    # what lets check_acyclic step along middle faces only
    if not check_hpa(a).ok:
        return
    x = build_realization(a)
    for k in range(2, x.max_dim + 1):
        for cell in x.cells[k]:
            fs = x.faces(cell)
            assert x.tail(fs[0]) != x.tail(cell)
            assert x.head(fs[-1]) != x.head(cell)
            for f in fs[1:-1]:
                assert (x.tail(f), x.head(f)) == (x.tail(cell), x.head(cell))
