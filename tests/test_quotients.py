"""The class-level axiom check, quotient table, cover walk and matching
growth against brute-force references on random acyclic quivers with
random relation groups."""

from hypothesis import given, settings, strategies as st

from hpa.algebra import RelationSet, check_hpa, congruence_closure
from hpa.morse import (Matching, MatchingError, _greedy_on_cells,
                       _is_arrow_cell, _maximal_chains,
                       greedy_internal_matching)
from hpa.quiver import PathWord, Quiver, enumerate_paths
from hpa.realization import build_realization


def brute_force_cancellative(a):
    """Every word r and every pair of non-congruent parallel words p, p'
    with r p ~ r p' (or p r ~ p' r) is a violation."""
    cls = a.class_of_word
    parallel = {}
    for w in cls:
        parallel.setdefault((w.tail, w.head), []).append(w)
    for r in cls:
        if not r.labels:
            continue
        for (t, h), ws in parallel.items():
            for i, p in enumerate(ws):
                for p2 in ws[i + 1:]:
                    if cls[p] == cls[p2]:
                        continue
                    if t == r.head and (
                            cls[PathWord(r.tail, h, r.labels + p.labels)] ==
                            cls[PathWord(r.tail, h, r.labels + p2.labels)]):
                        return False
                    if h == r.tail and (
                            cls[PathWord(t, r.head, p.labels + r.labels)] ==
                            cls[PathWord(t, r.head, p2.labels + r.labels)]):
                        return False
    return True


def prefix_quotient(a, p, q):
    """The class r with p r = q, found by scanning the words of q for a
    prefix in p; None when p does not left-divide q."""
    pc, qc = a.cls(p), a.cls(q)
    if pc.tail != qc.tail:
        return None
    if pc.is_trivial:
        return q
    for w in qc.words:
        for k in sorted(pc.lengths):
            if k > len(w.labels):
                continue
            pre = a.quiver.word(w.tail, w.labels[:k])
            if a.class_of_word.get(pre) == p:
                return a.class_of_word[PathWord(pre.head, w.head,
                                                w.labels[k:])]
    return None


@st.composite
def algebras(draw):
    n = draw(st.integers(1, 5))
    vertices = [f"v{i}" for i in range(n)]
    edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] < e[1]) if n > 1 else st.nothing()
    pairs = draw(st.lists(edges, max_size=7)) if n > 1 else []
    q = Quiver(vertices, [(f"a{i}", vertices[s], vertices[t])
                          for i, (s, t) in enumerate(pairs)])
    parallel = {}
    for w in sorted(enumerate_paths(q), key=q.word_key):
        parallel.setdefault((w.tail, w.head), []).append(w)
    keys = sorted(k for k, ws in parallel.items() if len(ws) >= 2)
    groups = []
    if keys:
        for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
            used = {w for g in groups for w in g}
            free = [w for w in parallel[key] if w not in used]
            if len(free) >= 2:
                groups.append(draw(st.lists(st.sampled_from(free), min_size=2,
                                            max_size=len(free), unique=True)))
    return congruence_closure(enumerate_paths(q), RelationSet(q, groups))


@settings(max_examples=150, deadline=None)
@given(algebras())
def test_arrow_check_and_quotients_match_word_scans(a):
    ok = brute_force_cancellative(a)
    assert check_hpa(a).ok == ok
    if not ok:
        return
    for p in range(len(a.classes)):
        for q in range(len(a.classes)):
            try:
                r = a.divide(p, q)
            except ValueError:
                r = None
            assert r == prefix_quotient(a, p, q)


def poset_maximal_chains(elements, leq):
    """All maximal chains of a finite poset given as element list + leq."""
    elems = list(elements)
    below = {e: [f for f in elems if f != e and leq(f, e)] for e in elems}
    above = {e: [f for f in elems if f != e and leq(e, f)] for e in elems}
    minimals = [e for e in elems if not below[e]]
    chains = []
    stack = [(e, (e,)) for e in minimals]
    while stack:
        last, chain = stack.pop()
        covers = [f for f in above[last]
                  if not any(g != f and leq(g, f) for g in above[last])]
        if not covers:
            chains.append(chain)
        else:
            for f in covers:
                stack.append((f, chain + (f,)))
    return chains


def augment_by_rechecking(a, x, pairs):
    """Grow a matching by rebuilding and fully rechecking it for every
    candidate pair (top, middle facet), in cell order until none fits."""
    pairs = list(pairs)
    matched = {c for pair in pairs for c in pair}
    changed = True
    while changed:
        changed = False
        for k in range(2, x.max_dim + 1):
            for top in x.cells[k]:
                if top in matched or _is_arrow_cell(a, top):
                    continue
                for f in x.faces(top)[1:-1]:
                    if f in matched or len(f) < 2 or _is_arrow_cell(a, f):
                        continue
                    if Matching(x, pairs + [(top, f)]).acyclic.ok:
                        pairs.append((top, f))
                        matched.update((top, f))
                        changed = True
                        break
    return Matching(x, pairs)


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_cover_walk_and_greedy_growth_match_references(a):
    if not check_hpa(a).ok:
        return
    n = len(a.classes)
    for u in range(n):
        for w in range(n):
            if u == w or not a.leq(u, w):
                continue
            inner = [z for z in range(n)
                     if z not in (u, w) and a.leq(u, z) and a.leq(z, w)]
            expect = poset_maximal_chains(inner, a.leq) or [()]
            assert sorted(_maximal_chains(a, u, w)) == sorted(expect)

    x = build_realization(a)
    pairs = []
    for p in range(n):
        cells = [c for k in range(1, x.max_dim + 1) for c in x.cells[k]
                 if c[-1] == p]
        pairs += _greedy_on_cells(x, cells)
    ref = augment_by_rechecking(a, x, pairs)
    try:
        got = greedy_internal_matching(a, complex_=x)
    except MatchingError:
        assert not (ref.internal.ok and ref.acyclic.ok)
    else:
        assert got.pairs == ref.pairs
