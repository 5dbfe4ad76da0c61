"""Internal acyclic matchings of the realization and their Morse complexes
of the cellular bimodule resolution, and through it of the cellular chains.

A matching pairs k-cells with (k-1)-facets, each cell written as its chain.
Internality (no cell from Q_0 or Q_1 matched, matched pairs share tail and
head) forces every matched facet to be a middle face (see check_acyclic),
with trivial coefficients and incidence +-1, which is what lets the pairs be
cancelled.  Forgetting coefficients turns the resolution into the cellular
chains, and its Morse complex into theirs (Kozlov, Combinatorial Algebraic
Topology, 2008, ch. 11).  A Matching is a partner rule built one stratum
(the cells that end at one class) at a time, and MorseComplex walks its
critical cells by the one gradient-flow walk, realization.gradient_terms.
No CellComplex is built.
"""

import json
from collections import defaultdict, deque
from itertools import chain

from . import UsageError, realization
from .algebra import Report, require_cancellative
from .realization import (MatchingError, by_dimension, cell_counts, faces,
                          format_chain, gradient_terms, lex_shelling,
                          shelled_critical, stratum)


class MatchingFileError(UsageError):
    """A matching file of the wrong shape."""


class Matching:
    """The matching of the realization of `hpa` capped at max_dim whose
    rule is realization.partner, read off the shelling, on the classes in
    `shelled`, and the pairs (top, bottom) of chains elsewhere: bottom a
    facet of top, no chain used twice.  top[b] is the top matched with
    bottom b and bottom[t] the bottom matched with top t; `pairs` lists
    them as (top, bottom).  `internal` and `acyclic` hold the reports of
    check_internal and check_acyclic on the pairs given, run once here."""

    def __init__(self, hpa, pairs, max_dim=None, shelled=frozenset()):
        self.hpa, self.max_dim, self.shelled = hpa, max_dim, shelled
        self.top, self.bottom = top, bottom = {}, {}
        for t, b in pairs:
            if b not in faces(hpa, t):
                raise MatchingError(f"{format_chain(hpa, b)} is not a facet "
                                    f"of {format_chain(hpa, t)}")
            for c in (t, b):
                if c in top or c in bottom:
                    raise MatchingError(
                        f"cell {format_chain(hpa, c)} matched twice")
            top[b], bottom[t] = t, b
        self.pairs = bottom.items()
        self.internal = check_internal(self)
        self.acyclic = check_acyclic(self)

    def partner(self, c):
        """The partner rule of gradient_terms: None for an unmatched cell,
        () for a top, else (its top, the place of c among its faces)."""
        if c[-1] in self.shelled:
            return realization.partner(self.hpa, c)
        if c in self.bottom:
            return ()
        t = self.top.get(c)
        return None if t is None else (
            t, next(i for i, v in enumerate(c) if t[i] != v))


def check_internal(m):
    """Internality: no Q_0 or Q_1 cell matched; pairs share tail and head.
    A witness is (reason, formatted cell or pair), in the order of the
    chains of the tops."""
    a = m.hpa
    ends = [(cl.tail, cl.head) for cl in a.classes]
    found = []  # (top, reason, text)
    for top, bottom in m.pairs:
        for c in (top, bottom):
            if len(c) == 1:
                found.append((top, 'vertex cell matched', format_chain(a, c)))
            elif len(c) == 2 and 1 in a.classes[c[-1]].lengths:
                found.append((top, 'arrow cell matched', format_chain(a, c)))
        if ends[top[-1]] != ends[bottom[-1]]:
            found.append((top, 'pair changes stratum', format_chain(a, top) +
                          ' ~ ' + format_chain(a, bottom)))
    found.sort(key=lambda w: w[0])
    return Report([w[1:] for w in found], len(m.pairs))


def _middle(c):
    return [c[:i] + c[i + 1:] for i in range(1, len(c) - 1)]


def _find_cycle(a, top, starts, middle):
    """Depth-first search from each matched bottom of `starts` in turn,
    along the steps s -> f, f a face of top[s] (a middle one if `middle`)
    other than s that is a matched bottom, coloured on the current path (1)
    or done (2).  The first cycle closed, as the alternating list bottom,
    top, ..., bottom, or None."""
    color = {}

    def steps(s):
        color[s] = 1
        t = top[s]
        return iter([f for f in (_middle(t) if middle else faces(a, t))
                     if f != s and f in top])
    for start in starts:
        if start in color:
            continue
        path = [start]
        stack = [steps(start)]
        while stack:
            for nxt in stack[-1]:
                state = color.get(nxt)
                if state == 1:
                    loop = path[path.index(nxt):]
                    return [c for s in loop for c in (s, top[s])] + [nxt]
                if state is None:
                    path.append(nxt)
                    stack.append(steps(nxt))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    return None


def check_acyclic(m):
    """Cycle detection on the Hasse digraph with matched edges upward, by
    _find_cycle from the matched bottoms in order of (dimension, tail, head,
    chain) for an internal matching (m.internal), of (dimension, chain)
    otherwise.  The quiver being acyclic, face 0 of an internal top leaves
    its tail and its top face its head: only the middle faces are searched,
    and a path that leaves a stratum never returns (the patchwork theorem,
    Kozlov, Combinatorial Algebraic Topology, Thm 11.10)."""
    a, internal = m.hpa, m.internal.ok
    ends = [(cl.tail, cl.head) if internal else () for cl in a.classes]
    starts = sorted(m.top)
    starts.sort(key=lambda c: (len(c), ends[c[-1]]))
    cycle = _find_cycle(a, m.top, starts, internal)
    return Report([cycle] if cycle else [], len(m.pairs))


# ---------------------------------------------------------------------------
# Morse complex


class MorseComplex:
    """The critical cells of the matching m, chains by dimension (read off
    the shelling on a class in m.shelled, else the cells no pair holds),
    with the differential of realization.gradient_terms under its partner
    rule: a bimodule complex with the generators() and terms() of a
    resolution.  `pairs` is (cells - critical cells) / 2.  MatchingError
    with the first witness refuses m unless it is internal and acyclic.
    With the empty matching this reproduces the resolution."""

    def __init__(self, m):
        a = self.hpa = m.hpa
        if not m.internal.ok:
            raise MatchingError(
                f"matching not internal: {m.internal.witnesses[0]}")
        if not m.acyclic.ok:
            raise MatchingError("matching not acyclic: " + ' -> '.join(
                format_chain(a, c) for c in m.acyclic.witnesses[0]))
        whole = cell_counts(a)
        counts = whole[:len(whole) if m.max_dim is None else m.max_dim + 1]
        top = len(counts) - 1
        self.cells = by_dimension(a, chain.from_iterable(
            shelled_critical(a, p, top) if p in m.shelled else
            [c for c in stratum(a, p, top) if c not in m.top and
             c not in m.bottom]
            for p in range(len(a.classes)) if top and not a.is_trivial(p)),
            top, counts)
        while len(self.cells) > 1 and not self.cells[-1]:
            self.cells.pop()
        self._terms = gradient_terms(a, self.cells, m.partner)
        self.pairs = (sum(counts) - sum(self.counts())) // 2
        self.max_dim, self.truncated = top, len(counts) < len(whole)

    @property
    def top(self):
        return len(self.cells) - 1

    def generators(self, k):
        return self.cells[k] if 0 <= k <= self.top else []

    def counts(self):
        return [len(cs) for cs in self.cells]

    def chain(self, cell):
        return cell

    def terms(self, cell):
        """Differential of a critical cell: list of (coef, l, target, r)."""
        return self._terms.get(cell, [])


# ---------------------------------------------------------------------------
# Matching constructions


def _coreduce(cells, arrow):
    """The dicts (top, bottom) of greedy coreduction on the cells `cells`
    of one stratum, in (dimension, chain) order, but the arrow cell `arrow`:
    repeatedly match a bottom with its only available coface via a middle
    face; when stuck, set aside the least available cell, unmatched."""
    middle = {c: [c[:i] + c[i + 1:] for i in range(1, len(c) - 1)]
              for c in cells if c != arrow}
    available = set(middle)
    cofaces = defaultdict(list)
    for c, fs in middle.items():
        for f in fs:
            cofaces[f].append(c)
    count = {f: len(ts) for f, ts in cofaces.items()}  # available cofaces
    top, bottom = {}, {}
    queue = deque(sorted(f for f, n in count.items()
                         if n == 1 and f in available))
    order = iter(middle)  # the least available cell is the next one left
    while available:
        if queue:
            s = queue.popleft()
            if s not in available or count[s] != 1:
                continue
            t = next(t for t in cofaces[s] if t in available)
            top[s], bottom[t] = t, s
            gone = s, t
        else:
            gone = next(c for c in order if c in available),
        for c in gone:
            available.discard(c)
            for f in middle[c]:
                n = count[f] = count[f] - 1
                if n == 1 and f in available:
                    queue.append(f)
    return top, bottom


def _grow(a, cells, top, bottom, arrow):
    """Add to the acyclic matching (top, bottom) of the cells `cells` of a
    stratum every pair (top, middle face) of unmatched cells, but `arrow`,
    that closes no cycle, in (dimension, chain) order until none fits.  Only
    a cycle through the new bottom can close, so only that search is run."""
    changed = True
    while changed:
        changed = False
        for t in cells:
            if len(t) < 3 or t in top or t in bottom:
                continue
            for f in _middle(t):
                if f in top or f in bottom or f == arrow:
                    continue
                top[f] = t
                if _find_cycle(a, top, [f], True) is None:
                    bottom[t] = f
                    changed = True
                    break
                del top[f]


def _greedy_matching(a, max_dim, shelled):
    """The Matching of greedy coreduction plus growth on every stratum of
    the realization of `a` capped at max_dim whose class is not in
    `shelled`.  Like the pairs of the shellings, these join it unchecked,
    internal and acyclic by construction: each is a cell and a middle face
    of it; a coreduction pair's bottom has no other available coface, so a
    gradient path from it only meets later pairs; growth searches for a
    cycle through each pair it adds.  The arrow cell [e < p] of an arrow's
    class, the first of its stratum, is never matched: in an ungraded
    algebra it can be a middle face of a longer chain."""
    require_cancellative(a)
    m = Matching(a, (), max_dim, shelled)
    cap = len(a.classes) if max_dim is None else max_dim
    for p in range(len(a.classes)):
        if not a.is_trivial(p) and p not in shelled:
            cells = stratum(a, p, cap)
            arrow = cells[0] if cells and 1 in a.classes[p].lengths else None
            top, bottom = _coreduce(cells, arrow)
            _grow(a, cells, top, bottom, arrow)
            m.top.update(top)
            m.bottom.update(bottom)
    return m


def greedy_internal_matching(a, max_dim=None):
    """Internal acyclic matching of the realization of `a` capped at
    max_dim by greedy coreduction plus growth, one stratum at a time."""
    return _greedy_matching(a, max_dim, frozenset())


def babson_hersh_matching(a, max_dim=None):
    """Lexicographic interval matching of the realization of `a` capped at
    max_dim: realization.partner on each class whose order shells (a bottom
    at the cap whose top lies above it stays critical), greedy coreduction
    plus growth on the others."""
    require_cancellative(a)
    return _greedy_matching(a, max_dim, frozenset(
        p for p in range(len(a.classes))
        if not a.is_trivial(p) and lex_shelling(a, p) is not None))


# ---------------------------------------------------------------------------
# Minimality / linearity


def _morse_terms(mc):
    """Every differential term of a Morse complex: (cell, coef, l, target,
    r)."""
    return [(cell, coef, l, tgt, r) for k in range(1, mc.top + 1)
            for cell in mc.generators(k)
            for coef, l, tgt, r in mc.terms(cell)]


def check_minimal(mc):
    """Minimal iff no differential term has both coefficients trivial."""
    a = mc.hpa
    terms = _morse_terms(mc)
    return Report([(cell, tgt, coef) for cell, coef, l, tgt, r in terms
                   if a.is_trivial(l) and a.is_trivial(r)], len(terms))


def check_linear(mc):
    """Linear iff every term has len(l) + len(r) = 1.  Refuses ungraded
    algebras (length of a class is ill defined there)."""
    a = mc.hpa
    if not a.graded:
        raise ValueError("algebra is not graded by path length")
    terms = _morse_terms(mc)
    return Report([(cell, tgt, a.length(l), a.length(r))
                   for cell, _, l, tgt, r in terms
                   if a.length(l) + a.length(r) != 1], len(terms))


# ---------------------------------------------------------------------------
# Fixture serialization


def _field(data, key, valid, what):
    """data[key], refused with MatchingFileError when it is missing or
    valid(data[key]) is false; `what` says what it should be."""
    try:
        value = data[key]
    except (KeyError, TypeError):
        raise MatchingFileError(f"matching file: missing {key!r}") from None
    if not valid(value):
        raise MatchingFileError(f"matching file: {key!r} must be {what}")
    return value


def _is_chain(value):
    return isinstance(value, list) and value and all(
        isinstance(labels, list) and all(isinstance(l, str) for l in labels)
        for labels in value)


def _cell_from_json(a, item, key, top):
    data = _field(item, key, lambda v: isinstance(v, dict), 'an object')
    tail = _field(data, 'tail', lambda v: isinstance(v, str), 'a vertex name')
    chain_ = _field(data, 'chain', _is_chain,
                    'a nonempty list of label lists')
    classes = tuple(a.word_class(a.quiver.word(tail, tuple(labels)))
                    for labels in chain_)
    c0 = classes[0]
    if not a.is_trivial(c0):
        # rebase a chain written with a nontrivial first entry
        classes = (a.trivial_class[a.head(c0)],) + tuple(
            a.divide(c0, c) for c in classes[1:])
    if not (len(classes) <= top + 1 and a.is_trivial(classes[0]) and all(
            q != p and q in a.quotients(p)
            for p, q in zip(classes, classes[1:]))):
        raise MatchingError(f"not a cell of the realization: {classes}")
    return classes


def matching_from_json(data, a, max_dim=None):
    """Load a matching fixture of the realization of `a` capped at max_dim.
    Chains may be written with a nontrivial first entry (they are rebased
    to canonical cells).  Identical pairs collapse to one; the same cell in
    two different pairs is an error."""
    top = float('inf') if max_dim is None else max_dim
    raw = [(_cell_from_json(a, item, 'top', top),
            _cell_from_json(a, item, 'bottom', top))
           for item in _field(data, 'pairs', lambda v: isinstance(v, list),
                              'a list')]
    return Matching(a, sorted(set(raw)), max_dim)


def load_matching(path, a, max_dim=None):
    with open(path, encoding='utf-8') as f:
        return matching_from_json(json.load(f), a, max_dim)
