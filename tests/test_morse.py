import json
import random
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hpa import RING_Z, realization, ring_fp
from hpa.algebra import check_hpa
from hpa.cli import main
from hpa.dsl import emit_quiver
from hpa.quiver import Quiver
from hpa.linalg import homology
from hpa.realization import (build_realization, faces, format_chain,
                             lex_shelling)
from hpa.resolution import (BimoduleComplex, cellular_resolution,
                            verify_d_squared)
from hpa.morse import (Matching, MatchingError, MorseComplex, check_internal,
                       check_acyclic, babson_hersh_matching,
                       greedy_internal_matching, check_minimal, check_linear,
                       load_matching, matching_from_json, _find_cycle)

from conftest import (BENCHMARK_INPUTS, FIXTURES, Mutant, algebras,
                      augment_by_rechecking, cell_faces, cell_matching,
                      cell_of, cellular_homology, classes_between,
                      critical_cells, free_algebra, gradient_path_counts,
                      linear_quiver, load_algebra, matching_to_json,
                      morse_homology, morse_pairs, reference_bh_pairs,
                      reference_bh_pairs_by_sets, reference_check_acyclic,
                      reference_coreduction, reference_d_squared,
                      reference_lex_shelling, reference_morse_terms,
                      reference_partner, split_interval_algebras,
                      tensor_simples, tor_via_intervals, tor_via_resolution,
                      unshelled_classes, words_by_class)


def _chain(a, tail, *label_seqs):
    """The canonical chain of words given as label tuples (first entry
    ())."""
    return tuple(a.word_class(a.quiver.word(tail, tuple(ls)))
                 for ls in label_seqs)


def _explicit(m, x):
    """The pairs that the partner rule of the matching m matches among the
    cells of x, as a Matching with every pair explicit, after checking that
    the Morse complex of m keeps exactly the cells they leave critical."""
    pairs = morse_pairs(m, x)
    crit = [[x.chain(c) for c in cs]
            for cs in critical_cells(cell_matching(x, pairs))]
    while len(crit) > 1 and not crit[-1]:
        crit.pop()
    mc = MorseComplex(m)
    assert mc.cells == crit and mc.pairs == len(pairs)
    return Matching(m.hpa, pairs)


def test_empty_matching_reproduces_resolution(p2):
    c = cellular_resolution(p2)
    x = c.complex
    mc = MorseComplex(Matching(p2, []))
    assert mc.counts() == x.counts()
    for k in range(1, mc.top + 1):
        for cell in mc.generators(k):
            assert set(mc.terms(cell)) == {
                (s, l, x.chain(f), r)
                for s, l, f, r in c.terms(cell_of(x, cell))}


def test_acyclicity_cycle_witness():
    # Free A4, stratum (v0, v4).  The open interval under the full path is
    # the chain a1 < a1a2 < a1a2a3; matching the three 3-cells against a
    # rotated choice of middle facets creates a genuine directed loop.
    a = free_algebra(linear_quiver(4))
    e, w = (), ('a1', 'a2', 'a3', 'a4')
    cx, cy, cz = ('a1',), ('a1', 'a2'), ('a1', 'a2', 'a3')
    t_xy = _chain(a, 'v0', e, cx, cy, w)
    t_yz = _chain(a, 'v0', e, cy, cz, w)
    t_xz = _chain(a, 'v0', e, cx, cz, w)
    s_x = _chain(a, 'v0', e, cx, w)
    s_y = _chain(a, 'v0', e, cy, w)
    s_z = _chain(a, 'v0', e, cz, w)
    m = Matching(a, [(t_xy, s_x), (t_yz, s_y), (t_xz, s_z)])
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
        assert cyc[i + 2] in faces(a, top)
    with pytest.raises(MatchingError):
        MorseComplex(m)


def test_internality_witnesses(p2):
    xy = _chain(p2, 'v0', (), ('x',), ('x', "y'"))
    # boundary face 0 lives in a different stratum
    other = faces(p2, xy)[0]
    m = Matching(p2, [(xy, other)])
    rep = check_internal(m)
    assert not rep.ok
    assert any(reason == 'pair changes stratum' for reason, _ in rep.witnesses)
    with pytest.raises(MatchingError):
        MorseComplex(m)

    # so does the top face, through its head
    m1 = Matching(p2, [(xy, faces(p2, xy)[-1])])
    assert ('pair changes stratum', f"{format_chain(p2, xy)} ~ "
            f"{format_chain(p2, faces(p2, xy)[-1])}") in \
        check_internal(m1).witnesses

    edge = _chain(p2, 'v0', (), ('x',))
    vertex = _chain(p2, 'v0', ())
    m2 = Matching(p2, [(edge, vertex)])
    rep2 = check_internal(m2)
    reasons = {reason for reason, _ in rep2.witnesses}
    assert 'vertex cell matched' in reasons
    assert 'arrow cell matched' in reasons


def test_matching_rejects_double_use(p2):
    top1 = _chain(p2, 'v0', (), ('x',), ('x', "y'"))
    top2 = _chain(p2, 'v0', (), ('y',), ('x', "y'"))
    mid = _chain(p2, 'v0', (), ('x', "y'"))
    with pytest.raises(MatchingError):
        Matching(p2, [(top1, mid), (top2, mid)])
    # a top used twice, and a top that is then matched as a bottom
    edge, vertex = faces(p2, top1)[-1], _chain(p2, 'v0', ())
    for pairs, cell in [([(top1, mid), (top1, edge)], top1),
                        ([(edge, vertex), (top1, edge)], edge)]:
        with pytest.raises(MatchingError, match=re.escape(
                f"cell {format_chain(p2, cell)} matched twice")):
            Matching(p2, pairs)


def test_matching_refuses_unknown_cells_and_bottoms_that_are_no_facets(p2):
    top = _chain(p2, 'v0', (), ('x',), ('x', "y'"))
    other = _chain(p2, 'v0', (), ('y',))
    assert other not in faces(p2, top)
    with pytest.raises(MatchingError, match="is not a facet of"):
        Matching(p2, [(top, other)])
    # a file names cells by chains of words: one that is not increasing,
    # and one above a cap, name no cell
    bottom = {'tail': 'v0', 'chain': [[], ['x']]}
    for chain, max_dim in ([[], ['x'], ['x']], None), \
            ([[], ['x'], ['x', "y'"]], 1):
        with pytest.raises(MatchingError, match=(
                "^not a cell of the realization: ")):
            matching_from_json({'pairs': [{
                'top': {'tail': 'v0', 'chain': chain}, 'bottom': bottom}]},
                p2, max_dim)


def test_babson_hersh_p2_criticals(p2):
    m = babson_hersh_matching(p2)
    mc = MorseComplex(m)
    assert not unshelled_classes(p2)
    _explicit(m, build_realization(p2))
    crit = mc.cells
    assert [len(cs) for cs in crit] == [3, 6, 3]
    # critical 1-cells are exactly the arrow cells
    for chain in crit[1]:
        assert any(len(w.labels) == 1
                   for w in words_by_class(p2)[chain[1]])
    # critical 2-cells pick the lexicographically larger divisor
    names = sorted(format_chain(p2, chain) for chain in crit[2])
    assert names == ["[e_v0 < y < x y']", "[e_v0 < z < x z']",
                     "[e_v0 < z < y z']"]


@pytest.mark.parametrize('name', ['p2', 'f3', 'p113'])
def test_babson_hersh_on_a_truncated_complex(request, name):
    # a subset of the full matching: the pairs whose top the capped
    # complex holds
    a = request.getfixturevalue(name)
    whole = build_realization(a)
    full = morse_pairs(babson_hersh_matching(a), whole)
    for max_dim in range(whole.max_dim):
        x = build_realization(a, max_dim=max_dim)
        m = _explicit(babson_hersh_matching(a, max_dim), x)
        assert sorted(m.pairs) == \
            sorted(pr for pr in full if cell_of(x, pr[0]) is not None)


def test_babson_hersh_fallback_on_a_truncated_complex(f1):
    # under --max-dim 0 F1's fallback class has no cell left; otherwise the
    # greedy fallback runs on the capped cells and is checked as usual
    for max_dim in range(3):
        m = babson_hersh_matching(f1, max_dim)
        assert unshelled_classes(f1) and m.internal.ok and m.acyclic.ok
        assert bool(m.pairs) == (max_dim > 1)
        _explicit(m, build_realization(f1, max_dim=max_dim))


def test_babson_hersh_p2_morse_complex(p2):
    c = cellular_resolution(p2)
    mc = MorseComplex(babson_hersh_matching(p2))
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
    mc = MorseComplex(babson_hersh_matching(p2))
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
        _explicit(m, build_realization(a))
        crit = MorseComplex(m).cells
        assert len(crit[0]) == len(q.vertices)
        assert len(crit[1]) == len(q.arrows)
        assert all(len(cs) == 0 for cs in crit[2:])


def test_greedy_p2_agrees_with_resolution_homology(p2):
    c = cellular_resolution(p2)
    mc = MorseComplex(greedy_internal_matching(p2))
    assert verify_d_squared(mc).ok
    for v in p2.quiver.vertices:
        for w in p2.quiver.vertices:
            full = homology(*tensor_simples(c, v, w))
            small = homology(*tensor_simples(mc, v, w))
            for k in set(full) | set(small):
                assert full.get(k, (0, [])) == small.get(k, (0, []))


def test_gradient_path_counts_p2(p2):
    c = cellular_resolution(p2)
    m = babson_hersh_matching(p2)
    mc = MorseComplex(m)
    counts = gradient_path_counts(
        c, cell_matching(c.complex, morse_pairs(m, c.complex)))
    # each critical 2-cell [e < y < x*y'] reaches the arrow cell [e < y]
    # directly and [e < x] through exactly one alternating path
    for cell in (cell_of(c.complex, tau) for tau in mc.generators(2)):
        targets = {t for (tau, t), n in counts.items() if tau == cell}
        assert len(targets) >= 2
        assert all(n >= 1 for (tau, t), n in counts.items() if tau == cell)


def test_matching_roundtrip_and_rebasing(p2):
    x = build_realization(p2)
    pairs = morse_pairs(babson_hersh_matching(p2), x)
    m2 = matching_from_json(matching_to_json(p2, pairs), p2)
    assert sorted(m2.pairs) == sorted(pairs)

    # a chain written with nontrivial first entry is rebased, and an exact
    # duplicate pair collapses
    raw = {'pairs': [
        {'top': {'tail': 'v0', 'chain': [['x'], ['x', "y'"]]},
         'bottom': {'tail': 'v0', 'chain': [['x']]}},
        {'top': {'tail': 'v1', 'chain': [[], ["y'"]]},
         'bottom': {'tail': 'v1', 'chain': [[]]}},
    ]}
    m3 = matching_from_json(raw, p2)
    [(top, bottom)] = m3.pairs
    assert format_chain(p2, top) == "[e_v1 < y']"
    assert format_chain(p2, bottom) == '[e_v1]'


def test_check_linear_requires_grading():
    # relation of mixed length: a = bc makes the algebra ungraded
    q = Quiver(['u', 'm', 'v'],
               [('a', 'u', 'v'), ('b', 'u', 'm'), ('c', 'm', 'v')])
    from hpa.algebra import HPA, RelationSet
    a = HPA(RelationSet(q, [[q.word('u', ('a',)), q.word('u', ('b', 'c'))]]))
    assert not a.graded
    mc = MorseComplex(Matching(a, []))
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
        m = load_matching(FIXTURES / build, a, max_dim)
    else:
        m = build(a, max_dim)
    assert x.truncated == (max_dim is not None)
    assert bool(unshelled_classes(a)) == (name == 'f1')
    c = BimoduleComplex(a, x)
    mc = MorseComplex(m)
    pairs = _explicit(m, x).pairs
    cm = cell_matching(x, pairs)
    critical = [cell_of(x, tau) for k in range(1, mc.top + 1)
                for tau in mc.generators(k)]
    # some gradient path goes through a matched pair, except on the
    # ungraded algebra: no face of its one critical 2-cell is matched
    assert any(cm.top[f] >= 0 for tau in critical
               for f in cell_faces(x, tau)) == (name != 'ungraded')
    for tau in critical:
        assert mc.terms(x.chain(tau)) == [
            (cf, l, x.chain(tgt), r)
            for cf, l, tgt, r in reference_morse_terms(c, cm, tau)]
    # where every class shells, the partner rule read off the shellings
    # matches the pairs of the definition
    if build is babson_hersh_matching and name != 'f1':
        assert sorted(pairs) == sorted(reference_bh_pairs(a, x))


def _walk_with_partner(monkeypatch, a, rule):
    """The Morse complex of babson_hersh_matching(a), its walk reading
    rule(partner, c) in place of the partner rule partner(c) of the
    shellings (realization.partner).  The true rule is accepted."""
    partner = realization.partner
    MorseComplex(babson_hersh_matching(a))
    monkeypatch.setattr(realization, 'partner',
                        lambda a, c: rule(lambda c: partner(a, c), c))
    return MorseComplex(babson_hersh_matching(a))


def test_morse_complex_refuses_a_partner_at_a_wrong_place(p2, monkeypatch):
    # every bottom claims the next face of its top as its place
    def shifted(partner, c):
        match = partner(c)
        return (match[0], match[1] + 1) if match else match
    with pytest.raises(MatchingError,
                       match=r"^\[[^]]*\] is not face \d of \[[^]]*\]$"):
        _walk_with_partner(monkeypatch, p2, shifted)


@pytest.mark.parametrize('place', [0, -1],
                         ids=['nontrivial-left', 'nontrivial-right'])
def test_morse_complex_refuses_a_non_invertible_incidence(p2, monkeypatch,
                                                         place):
    # face 0 of a critical 2-cell, whose term has the left coefficient p_1,
    # or its top face, whose term has the right coefficient p_1\p_2,
    # claims that cell as its top: a pair the walk cannot cancel
    tau = MorseComplex(babson_hersh_matching(p2)).generators(2)[0]
    fs = faces(p2, tau)
    face, i = fs[place], place % len(fs)
    with pytest.raises(MatchingError, match="^matched pair has a "
                       "non-invertible incidence coefficient$"):
        _walk_with_partner(monkeypatch, p2, lambda partner, c: (
            (tau, i) if c == face else partner(c)))


def _acyclic_on_face_graph(m):
    """check_acyclic with its cycle search keyed by dimension alone, so that
    it follows every face edge, across (tail, head) strata too."""
    whole = SimpleNamespace(hpa=m.hpa, top=m.top, pairs=m.pairs,
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
        m = _explicit(build(a, max_dim), x)
        assert _acyclic_on_face_graph(m)
        for ring in (RING_Z, ring_fp(2)):
            assert morse_homology(cell_matching(x, m.pairs), ring) == \
                cellular_homology(x, ring)


@pytest.mark.parametrize('name', ['p2', 'f3', 'p113', 'a3a3'])
def test_morse_homology_fixtures(request, name):
    a = request.getfixturevalue(name)
    x = build_realization(a)
    m = _explicit(babson_hersh_matching(a), x)
    assert _acyclic_on_face_graph(m)
    for ring in (RING_Z, ring_fp(2)):
        assert morse_homology(cell_matching(x, m.pairs), ring) == \
            cellular_homology(x, ring)


def test_morse_homology_checks_d_squared_on_every_cell(p2, p113,
                                                     monkeypatch):
    # one face of the last cell of each dimension corrupted: caught at that
    # dimension, before any reduction
    def matching(a):
        x = build_realization(a)
        return cell_matching(x, morse_pairs(babson_hersh_matching(a), x))
    for a in (p2, p113):
        m = matching(a)
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
    m = matching(p2)
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
        m = _explicit(babson_hersh_matching(a, max_dim), x)
        h = morse_homology(cell_matching(x, m.pairs))
        assert h == cellular_homology(x)
        assert list(h) == list(range(max_dim + (max_dim == top)))


@settings(max_examples=60, deadline=None)
@given(split_interval_algebras(), st.one_of(st.none(), st.integers(0, 4)))
def test_split_intervals_match_as_the_cells_did(a, max_dim):
    # no draw of algebras() reaches a class that does not shell; each of
    # these holds one.  Per stratum, on chains, the Babson-Hersh fallback
    # and greedy match the pairs that coreduction over cell ids, the pairs
    # of the shellings and growth by rechecking the whole matching over
    # every stratum at once give, and their homology is the cells'
    # the incidence algebra: one class from v to w where w is above v
    assert all(len(classes_between(a, v, w)) <= 1
               for v in a.quiver.vertices for w in a.quiver.vertices)
    unshelled = unshelled_classes(a)
    assert unshelled and a.graded
    x = build_realization(a, max_dim=max_dim)
    cells = [x.chain(c) for cs in x.cells[1:] for c in cs]
    every = [p for p in range(len(a.classes)) if not a.is_trivial(p)]
    for build, coreduced in ((babson_hersh_matching, unshelled),
                             (greedy_internal_matching, every)):
        seed = [pr for p in coreduced for pr in reference_coreduction(x, p)]
        if build is babson_hersh_matching:
            seed += reference_bh_pairs(a, x)
        m = _explicit(build(a, max_dim), x)
        assert sorted(m.pairs) == \
            sorted(augment_by_rechecking(a, cells, seed).pairs)
        for ring in (RING_Z, ring_fp(2)):
            assert morse_homology(cell_matching(x, m.pairs), ring) == \
                cellular_homology(x, ring)


def _check_shellings_and_pairs(a, max_dim):
    """lex_shelling and the Babson-Hersh pairs against their references, on
    the realization capped at max_dim."""
    x = build_realization(a, max_dim=max_dim)
    shelled = True
    for p in range(len(a.classes)):
        if not a.is_trivial(p):
            ref = reference_lex_shelling(a, p)
            got = lex_shelling(a, p)
            assert (got if got is None else list(got.items())) == ref
            shelled &= ref is not None
    ref = reference_bh_pairs(a, x)
    assert sorted(ref) == sorted(reference_bh_pairs_by_sets(a, x))
    # internal and acyclic on ungraded algebras too
    m = babson_hersh_matching(a, max_dim)
    assert m.internal.ok and m.acyclic.ok
    pairs = _explicit(m, x).pairs
    assert bool(unshelled_classes(a)) == (not shelled)
    if not shelled:
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
        _check_shellings_and_pairs(a, max_dim)


@pytest.mark.parametrize('name', ['p2', 'f1', 'f3', 'p113', 'a3a3', 'p11112',
                                  'ungraded'])
def test_shellings_and_pairs_match_references_on_fixtures(request, name):
    a = request.getfixturevalue(name)
    _check_shellings_and_pairs(a, None)
    # F1 has the one interval that its lexicographic order does not shell
    assert bool(unshelled_classes(a)) == (name == 'f1')
    for max_dim in range(max(4, build_realization(a).max_dim)):
        _check_shellings_and_pairs(a, max_dim)


def _check_partner(a, x):
    """realization.partner against the scan of the facet masks on every
    cell of x."""
    for cell in range(len(x.last)):
        c = x.chain(cell)
        assert realization.partner(a, c) == reference_partner(a, c), c


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)),
       st.one_of(st.none(), st.integers(0, 3)))
def test_partner_matches_the_scan_of_the_facets(a, max_dim):
    if check_hpa(a).ok:
        _check_partner(a, build_realization(a, max_dim=max_dim))


@pytest.mark.parametrize('name', ['p2', 'f3', 'f1', 'p113', 'ungraded'])
def test_partner_matches_the_scan_of_the_facets_on_fixtures(request, name):
    a = request.getfixturevalue(name)
    _check_partner(a, build_realization(a))


def _random_internal_matching(x, rng):
    """Tops of dimension >= 2, each with one middle facet that is not an
    arrow cell, no cell used twice.  Mostly the tops come from the (tail,
    head) stratum of a random cell of dimension >= 3, since a cycle needs a
    top with two middle faces and stays in one stratum."""
    a = x.hpa
    arrows = set(a.arrow_class.values())
    ends = [(cl.tail, cl.head) for cl in a.classes]
    tops = [c for k in range(2, x.max_dim + 1) for c in x.cells[k]]
    if rng.random() < 0.8:
        c = rng.choice([c for c in tops if len(x.chain(c)) >= 4])
        tops = [t for t in tops if ends[x.last[t]] == ends[x.last[c]]]
    tops = rng.sample(tops, rng.randint(1, len(tops)))
    used = set()
    pairs = []
    for top in tops:
        bottoms = [f for f in cell_faces(x, top)[1:-1] if f not in used
                   and not (len(x.chain(f)) == 2 and x.chain(f)[1] in arrows)]
        if top in used or not bottoms:
            continue
        bottom = rng.choice(bottoms)
        used.update((top, bottom))
        pairs.append((x.chain(top), x.chain(bottom)))
    return Matching(a, pairs)


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
        whole = SimpleNamespace(hpa=a, top=m.top, pairs=m.pairs,
                                internal=SimpleNamespace(ok=False))
        rep, ref = check_acyclic(whole), reference_check_acyclic(whole)
        assert (rep.ok, rep.witnesses) == (ref.ok, ref.witnesses)
        cyclic += not rep.ok
    assert cyclic


@pytest.mark.parametrize('name', ['a4', 'a3a3'])
def test_find_cycle_decides_alike_from_every_start_order(request, name):
    # growth searches from one new bottom at a time: a search from the
    # bottoms in any order finds a cycle exactly when there is one, and
    # each search starts afresh
    a = free_algebra(linear_quiver(4)) if name == 'a4' else \
        request.getfixturevalue(name)
    x = build_realization(a)
    rng = random.Random(name)
    outcomes = set()
    for _ in range(100):
        m = _random_internal_matching(x, rng)
        bottoms = sorted(m.top)
        for starts in (bottoms, bottoms[::-1]):
            cycle = _find_cycle(a, m.top, starts, True)
            assert cycle == _find_cycle(a, m.top, starts, True)
            assert (cycle is None) == reference_check_acyclic(m).ok
            outcomes.add(cycle is None)
    assert outcomes == {True, False}


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)))
def test_only_the_middle_faces_keep_the_stratum(a):
    # what lets check_acyclic step along middle faces only
    if not check_hpa(a).ok:
        return
    x = build_realization(a)
    ends = [(cl.tail, cl.head) for cl in a.classes]
    for k in range(2, x.max_dim + 1):
        for cell in x.cells[k]:
            fs = [ends[x.last[f]] for f in cell_faces(x, cell)]
            tail, head = ends[x.last[cell]]
            assert fs[0][0] != tail and fs[-1][1] != head
            assert all(f == (tail, head) for f in fs[1:-1])


@pytest.mark.parametrize('name', ['a4a4', 'a2a2a2'])
def test_babson_hersh_pairs_match_the_reference_on_benchmark_inputs(name):
    # P(1,1,1,1,2), the third benchmark input, is among the fixtures above
    a = load_algebra(f'{name}.quiver', BENCHMARK_INPUTS)
    x = build_realization(a)
    m = _explicit(babson_hersh_matching(a), x)
    assert not unshelled_classes(a)
    assert sorted(m.pairs) == sorted(reference_bh_pairs(a, x))


class _ReferenceMorse:
    """The Morse complex of the CellComplex x under the pairs of chains
    `pairs`, its differential summed over the gradient paths
    (reference_morse_terms), cells written as chains."""

    def __init__(self, x, pairs):
        m = cell_matching(x, pairs)
        c = BimoduleComplex(x.hpa, x)
        self.hpa, self.cells = x.hpa, critical_cells(m)
        while len(self.cells) > 1 and not self.cells[-1]:
            self.cells.pop()
        self._terms = {x.chain(tau): [
            (cf, l, x.chain(tgt), r)
            for cf, l, tgt, r in reference_morse_terms(c, m, tau)]
            for cells in self.cells[1:] for tau in cells}
        self.cells = [list(map(x.chain, cells)) for cells in self.cells]
        self.top = len(self.cells) - 1

    def generators(self, k):
        return self.cells[k] if 0 <= k <= self.top else []

    def terms(self, cell):
        return self._terms.get(cell, [])

    def chain(self, cell):
        return cell


def _check_morse_report_on_chains(a, max_dim, ring):
    """hpa morse with the default matching, on an algebra whose classes all
    shell, walks on chains; its report must be that of the complex built
    from the cells, the reference pairs and the sum over gradient paths."""
    x = build_realization(a, max_dim=max_dim)
    pairs = reference_bh_pairs(a, x)
    ref = _ReferenceMorse(x, pairs)
    d2 = reference_d_squared(ref)
    below = x.max_dim if x.truncated else float('inf')
    quasi_iso = all(
        {i: g for i, g in tor_via_resolution(a, ref, v, w, ring).items()
         if i < below} ==
        {i: g for i, g in tor_via_intervals(a, v, w, ring).items()
         if i < below}
        for v in a.quiver.vertices for w in a.quiver.vertices)
    terms = [t for k in range(1, ref.top + 1) for cell in ref.generators(k)
             for t in ref.terms(cell)]
    minimal = linear = None
    if not x.truncated:
        minimal = not any(a.is_trivial(l) and a.is_trivial(r)
                          for _, l, _, r in terms)
        if a.graded:
            linear = all(a.length(l) + a.length(r) == 1
                         for _, l, _, r in terms)
    argv = ['morse', '--ring', 'Z' if ring == RING_Z else 'Fp:2']
    if max_dim is not None:
        argv += ['--max-dim', str(max_dim)]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / 'a.quiver', Path(tmp) / 'morse.json'
        path.write_text(emit_quiver(a.quiver, a.relations))
        assert main(argv + [str(path), '--out', str(out)]) == 0
        got = json.loads(out.read_text())
    assert got['matching'] == {'strategy': 'babson-hersh',
                               'pairs': len(pairs)}
    assert got['criticals'] == [len(cs) for cs in ref.cells]
    assert (got['d_squared']['ok'], got['d_squared']['checked']) == \
        (d2.ok, d2.checked) == (True, d2.checked)
    assert got['quasi_iso']['ok'] is quasi_iso is True
    assert (got['minimal'], got['linear']) == (minimal, linear)


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)),
       st.one_of(st.none(), st.integers(0, 3)),
       st.sampled_from([RING_Z, ring_fp(2)]))
def test_morse_report_on_chains_matches_the_reference(a, max_dim, ring):
    if check_hpa(a).ok and all(
            reference_lex_shelling(a, p) is not None
            for p in range(len(a.classes)) if not a.is_trivial(p)):
        _check_morse_report_on_chains(a, max_dim, ring)


@pytest.mark.parametrize('name', ['p2', 'f3', 'p113', 'a3a3', 'ungraded'])
def test_morse_report_on_chains_matches_the_reference_on_fixtures(request,
                                                                 name):
    a = request.getfixturevalue(name)
    top = build_realization(a).max_dim
    for max_dim in (None, *range(top)):
        for ring in (RING_Z, ring_fp(2)):
            _check_morse_report_on_chains(a, max_dim, ring)
