"""Path classes, the class-level axiom check, quotient table, cover walk
and matching growth against brute-force references on random acyclic
quivers with random relation groups."""

from hypothesis import given, settings, strategies as st

from hpa.algebra import HPA, RelationSet, check_hpa
from hpa.dsl import parse_quiver
from hpa.morse import (Matching, _coreduce, _grow, greedy_internal_matching)
from hpa.quiver import PathWord, enumerate_paths
from hpa.realization import maximal_chains, stratum

from conftest import (algebras, augment_by_rechecking, word_key,
                      words_by_class)


def word_level_closure(rels):
    """Classes of the congruence the relation groups generate, found by
    union-find over every path word and closed under one-arrow extension on
    both sides; each class is a word_key-sorted list, and the classes are
    sorted by their least word."""
    q = rels.quiver
    words = enumerate_paths(q)
    wid = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return None
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        return (rx, ry)

    work = []
    for g in rels.groups:
        for w in g[1:]:
            m = union(wid[g[0]], wid[w])
            if m:
                work.append(m)
    while work:
        x, y = work.pop()
        u, v = words[x], words[y]
        for a in q.out[u.head]:
            m = union(wid[PathWord(u.tail, a.head, u.labels + (a.label,))],
                      wid[PathWord(v.tail, a.head, v.labels + (a.label,))])
            if m:
                work.append(m)
        for a in q.inc[u.tail]:
            m = union(wid[PathWord(a.tail, u.head, (a.label,) + u.labels)],
                      wid[PathWord(a.tail, v.head, (a.label,) + v.labels)])
            if m:
                work.append(m)
    groups = {}
    for i, w in enumerate(words):
        groups.setdefault(find(i), []).append(w)
    return sorted(groups.values(), key=lambda ws: word_key(q, ws[0]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)))
def test_sweep_matches_word_level_closure(a):
    ref = word_level_closure(a.relations)
    words = words_by_class(a)
    assert [words[c.id] for c in a.classes] == ref
    for c, ws in zip(a.classes, ref):
        assert c.rep == ws[0]
        assert (c.tail, c.head) == (ws[0].tail, ws[0].head)
        assert c.lengths == frozenset(len(w.labels) for w in ws)
        assert c.is_trivial == (not ws[0].labels)
    assert a.graded == all(len({len(w.labels) for w in ws}) == 1
                           for ws in ref)
    ref_class = {w: i for i, ws in enumerate(ref) for w in ws}
    for c in a.classes:
        for d in a.classes_by_tail[c.head]:
            assert a.mult(c.id, d) == ref_class[PathWord(
                c.tail, a.head(d), c.rep.labels + a.cls(d).rep.labels)]
    b = HPA(RelationSet(a.quiver, a.relations.groups[::-1]))
    assert b.classes == a.classes and b.graded == a.graded
    assert words_by_class(b) == words


def brute_force_cancellative(a):
    """Every word r and every pair of non-congruent parallel words p, p'
    with r p ~ r p' (or p r ~ p' r) is a violation."""
    cls = {w: c for c, ws in words_by_class(a).items() for w in ws}
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


def prefix_quotient(a, words, p, q):
    """The class r with p r = q, found by scanning the words of q (from
    words_by_class) for a prefix in p; None when p does not left-divide q."""
    pc, qc = a.cls(p), a.cls(q)
    if pc.tail != qc.tail:
        return None
    if pc.is_trivial:
        return q
    for w in words[q]:
        for k in sorted(pc.lengths):
            if k > len(w.labels):
                continue
            pre = a.quiver.word(w.tail, w.labels[:k])
            if a.word_class(pre) == p:
                return a.word_class(PathWord(pre.head, w.head,
                                             w.labels[k:]))
    return None


@settings(max_examples=150, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)))
def test_arrow_check_and_quotients_match_word_scans(a):
    ok = brute_force_cancellative(a)
    assert check_hpa(a).ok == ok
    if not ok:
        return
    words = words_by_class(a)
    for p in range(len(a.classes)):
        for q in range(len(a.classes)):
            try:
                r = a.divide(p, q)
            except ValueError:
                r = None
            assert r == prefix_quotient(a, words, p, q)


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


def test_growth_refuses_the_pair_that_closes_a_cycle():
    # A4 with an arrow b = a1 a2 a3 a4, stratum (v0, v4): [e < b] is an
    # arrow cell, so [e < z < b] is no top.  With [e < x < y < b] ~
    # [e < x < b] and [e < y < z < b] ~ [e < y < b] matched,
    # [e < x < z < b] ~ [e < z < b] would close the loop x -> y -> z -> x:
    # growth passes it over and matches [e < x < z < b] upward instead
    a = HPA(parse_quiver(
        "vertices: v0 v1 v2 v3 v4\narrows:\n  a1: v0 -> v1\n"
        "  a2: v1 -> v2\n  a3: v2 -> v3\n  a4: v3 -> v4\n  b: v0 -> v4\n"
        "relations:\n  b = a1 a2 a3 a4\n")[1])
    e, cx, cy, cz, w = [a.word_class(a.quiver.word('v0', labels)) for labels
                        in ((), ('a1',), ('a1', 'a2'), ('a1', 'a2', 'a3'),
                            ('b',))]
    seed = [((e, cx, cy, w), (e, cx, w)), ((e, cy, cz, w), (e, cy, w))]
    closing = ((e, cx, cz, w), (e, cz, w))
    assert not Matching(a, seed + [closing]).acyclic.ok
    top, bottom = {b: t for t, b in seed}, dict(seed)
    cells = stratum(a, w, len(a.classes))
    _grow(a, cells, top, bottom, (e, w))
    grown = Matching(a, bottom.items())
    assert grown.acyclic.ok and closing not in grown.pairs
    assert ((e, cx, cy, cz, w), closing[0]) in grown.pairs
    assert sorted(grown.pairs) == \
        sorted(augment_by_rechecking(a, cells, seed).pairs)


@settings(max_examples=60, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)))
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
            assert sorted(maximal_chains(a, u, w)) == sorted(expect)

    # coreduction per stratum, then growth by rechecking the whole matching
    # over every stratum at once, in (dimension, chain) order
    pairs, cells = [], []
    for p in range(n):
        if not a.is_trivial(p):
            cells += stratum(a, p, n)
            arrow = (a.trivial_class[a.tail(p)], p) \
                if 1 in a.classes[p].lengths else None
            pairs += _coreduce(stratum(a, p, n), arrow)[1].items()
    ref = augment_by_rechecking(a, sorted(cells, key=lambda c: (len(c), c)),
                                pairs)
    assert ref.internal.ok and ref.acyclic.ok
    assert sorted(greedy_internal_matching(a).pairs) == sorted(ref.pairs)
