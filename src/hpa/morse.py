"""Internal acyclic matchings of the realization and their Morse complexes
of the cellular bimodule resolution, and through it of the cellular chains.

A matching pairs k-cells with (k-1)-facets.  Internality (no cell from Q_0 or
Q_1 matched, matched pairs share tail and head) forces every matched facet to
be a middle face (see check_acyclic), with trivial coefficients and
incidence +-1, which is what lets the pairs be cancelled.  Forgetting
coefficients turns the resolution into the cellular chains, and its Morse
complex into theirs (Kozlov, Combinatorial Algebraic Topology, 2008, ch. 11).

Both routes to a Morse complex take the one gradient-flow walk on chains,
realization.gradient_terms.  babson_hersh_complex reads the matching off
the shellings when every class shells, with no CellComplex: it is internal
by construction (a pair shares its last class; no arrow or vertex cell is
matched) and acyclic by the Babson-Hersh theorem, lex_shelling verifying
each shelling and the walk refusing a cycle.  morse_complex(m) takes a
Matching, two flat lists over the cells of a CellComplex whose pairs are
checked one by one (greedy, from a file, or Babson-Hersh with coreduction
where a class does not shell); its reports follow the chains of the cells.
"""

import json
from collections import deque

from . import UsageError
from .algebra import Report, require_cancellative
from .realization import (MatchingError, _Gradient, build_realization,
                          cell_counts, gradient_terms, lex_shelling)


class MatchingFileError(UsageError):
    """A matching file of the wrong shape."""


class Matching:
    """A set of (top, bottom) cell pairs of `complex`, bottom a facet of top,
    no cell used twice, kept as two flat lists over the cells: top[b] is the
    top matched with bottom b and bottom[t] the bottom matched with top t,
    -1 for a cell not matched that way; `pairs` lists them by top id.
    `internal` and `acyclic` hold the reports of check_internal and
    check_acyclic, run once here."""

    def __init__(self, complex_, pairs):
        self.complex = complex_
        n = len(complex_.last)
        face, at = complex_.face, complex_.at
        self.top = top = [-1] * n
        self.bottom = bottom = [-1] * n
        for t, b in pairs:
            for cell in (t, b):
                if not (isinstance(cell, int) and 0 <= cell < n):
                    raise MatchingError(f"unknown cell {cell}")
            if b not in face[at[t]:at[t + 1]]:
                raise MatchingError(
                    f"{complex_.format_cell(b)} is not a facet of "
                    f"{complex_.format_cell(t)}")
            for cell in (t, b):
                if top[cell] >= 0 or bottom[cell] >= 0:
                    raise MatchingError(
                        f"cell {complex_.format_cell(cell)} matched twice")
            top[b], bottom[t] = t, b
        self.pairs = [(t, b) for t, b in enumerate(bottom) if b >= 0]
        self.internal = check_internal(self)
        self.acyclic = check_acyclic(self)

    def require_valid(self):
        """Return self, or raise MatchingError with the first witness unless
        the matching is internal and acyclic."""
        if not self.internal.ok:
            raise MatchingError(
                f"matching not internal: {self.internal.witnesses[0]}")
        if not self.acyclic.ok:
            raise MatchingError("matching not acyclic: " + ' -> '.join(
                self.complex.format_cell(c)
                for c in self.acyclic.witnesses[0]))
        return self


def _is_arrow_cell(x, cell):
    """1-cell [e_v < p] with p the class of an arrow (of length 1)."""
    return 1 in x.hpa.classes[x.last[cell]].lengths and x.dim(cell) == 1


def check_internal(m):
    """Internality: no Q_0 or Q_1 cell matched; pairs share tail and head.
    A witness is (reason, formatted cell or pair), in the order of the
    chains of the tops."""
    x = m.complex
    last, parent = x.last, x.parent
    stratum = [(c.tail, c.head) for c in x.hpa.classes]
    found = []  # (top, reason, text)
    for top, bottom in m.pairs:
        for cell in (top, bottom):
            if parent[cell] < 0:
                found.append((top, 'vertex cell matched', x.format_cell(cell)))
            elif _is_arrow_cell(x, cell):
                found.append((top, 'arrow cell matched', x.format_cell(cell)))
        if stratum[last[top]] != stratum[last[bottom]]:
            found.append((top, 'pair changes stratum',
                          f"{x.format_cell(top)} ~ {x.format_cell(bottom)}"))
    found.sort(key=lambda w: x.chain(w[0]))
    return Report([w[1:] for w in found], len(m.pairs))


def _find_cycle(x, top, starts, middle, color):
    """Depth-first search from each matched bottom of `starts` in turn,
    along the steps s -> f, f a face of top[s] (a middle one if `middle`)
    other than s that is a matched bottom, top[f] >= 0: `top` is a flat
    list of tops, -1 for unmatched.  `color`, a zeroed bytearray over the
    cells, marks cells on the current path (1) or done (2); only the cells
    visited are marked, and cleared on return, so one array serves every
    search.  Returns the first cycle closed, as the alternating list
    bottom, top, ..., bottom, or None."""
    face, at, cut = x.face, x.at, int(middle)
    marked = []

    def steps(s):
        color[s] = 1
        marked.append(s)
        t = top[s]
        return iter([f for f in face[at[t] + cut:at[t + 1] - cut]
                     if f != s and top[f] >= 0])
    try:
        for start in starts:
            if color[start]:
                continue
            path = [start]
            stack = [steps(start)]
            while stack:
                for nxt in stack[-1]:
                    state = color[nxt]
                    if state == 1:
                        loop = path[path.index(nxt):]
                        return [c for s in loop for c in (s, top[s])] + [nxt]
                    if state == 0:
                        path.append(nxt)
                        stack.append(steps(nxt))
                        break
                else:
                    color[path.pop()] = 2
                    stack.pop()
    finally:
        for c in marked:
            color[c] = 0
    return None


def check_acyclic(m):
    """Cycle detection on the Hasse digraph with matched edges upward, by
    _find_cycle over m.top.

    A directed cycle alternates matched-up and facet-down steps, so it only
    visits matched bottoms of one dimension.  The search starts from them in
    order of (dimension, tail, head, cell) for an internal matching (read
    from m.internal), of the ids, which run by dimension, otherwise.  As the
    quiver is acyclic, face 0 of an internal top (e, p_1, ..., p_k), k >= 2,
    leaves its tail and its top face its head, while the middle faces keep
    both: only faces(top)[1:-1] are searched.  That covers the whole face
    graph, since a path that leaves a stratum never returns (the patchwork
    theorem, Kozlov, Combinatorial Algebraic Topology, Thm 11.10).  The
    witness is a replayable alternating cycle.
    """
    x = m.complex
    internal = m.internal.ok
    dim, last = x.dim, x.last
    stratum = [(c.tail, c.head) for c in x.hpa.classes]
    cycle = _find_cycle(x, m.top, sorted((b for _, b in m.pairs), key=(
        lambda c: (dim(c), stratum[last[c]], c)) if internal else None),
        internal, bytearray(len(last)))
    return Report([cycle] if cycle else [], len(m.pairs))


# ---------------------------------------------------------------------------
# Morse complex


class MorseComplex:
    """The critical cells of a matching, chains by dimension, with the
    differential of realization.gradient_terms under its partner rule: a
    bimodule complex with the generators() and terms() of a resolution.
    `pairs` is (cells - critical cells) / 2; `max_dim` and `truncated` are
    those of the realization, whose cell counts are `counts`."""

    def __init__(self, hpa, cells, partner, counts, truncated):
        self.hpa = hpa
        self.cells = list(cells)
        while self.cells and not self.cells[-1]:
            self.cells.pop()
        self._terms = gradient_terms(hpa, self.cells, partner)
        self.pairs = (sum(counts) - sum(self.counts())) // 2
        self.max_dim, self.truncated = len(counts) - 1, truncated

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


def babson_hersh_complex(a, max_dim=None):
    """The Morse complex of the Babson-Hersh matching of the realization of
    `a` capped at max_dim (a bottom at the cap whose top lies above it
    stays critical), with no CellComplex; None when the order of some class
    is not a shelling.  _Gradient.criticals checks the Euler
    characteristic of the critical cells against the cell counts."""
    if any(lex_shelling(a, p) is None for p in range(len(a.classes))
           if not a.is_trivial(p)):
        return None
    counts, truncated = cell_counts(a, max_dim)
    grad = _Gradient(a, len(counts) - 1)
    return MorseComplex(a, grad.criticals(counts), grad.partner, counts,
                        truncated)


def morse_complex(m):
    """The Morse complex of m.complex under the matching m, its pairs the
    partner rule of the walk.  Raises MatchingError unless m is internal
    and acyclic.  With the empty matching this reproduces the resolution."""
    x = m.require_valid().complex
    top, bottom = m.top, m.bottom

    def partner(c):
        cell = x.cell(c)
        if bottom[cell] >= 0:
            return ()
        t = top[cell]
        return None if t < 0 else (x.chain(t), x.faces(t).index(cell))
    critical = [[x.chain(c) for c in cs if top[c] < 0 and bottom[c] < 0]
                for cs in x.cells]
    return MorseComplex(x.hpa, critical, partner, x.counts(), x.truncated)


# ---------------------------------------------------------------------------
# Matching constructions


def _cells_by_max(x):
    """{p: the cells of dimension >= 1 whose chain ends at p}, by id."""
    out = {}
    for cell in range(len(x.cells[0]), len(x.last)):
        out.setdefault(x.last[cell], []).append(cell)
    return out


def _greedy_on_cells(x, cells):
    """Coreduction on the cells that share one max element p: repeatedly
    match a bottom with its only available coface via a middle face; when
    stuck, set aside one cell as critical.  When p is the class of an arrow
    the 1-cell [e < p] is left out, so it stays unmatched: in an ungraded
    algebra it can be a middle face of a longer chain."""
    if cells and 1 in x.hpa.classes[x.last[cells[0]]].lengths:
        cells = [c for c in cells if x.dim(c) > 1]
    available = set(cells)
    middle = {}
    cofaces = {}
    for cell in cells:
        ms = x.faces(cell)[1:-1]
        if ms:
            middle[cell] = ms
            for f in ms:
                cofaces.setdefault(f, []).append(cell)
    count = {cell: sum(1 for t in cofaces.get(cell, ()) if t in available)
             for cell in cells}

    pairs = []
    queue = deque(sorted((c for c in cells if count[c] == 1), key=x.chain))

    def remove(cell):
        available.discard(cell)
        for f in middle.get(cell, ()):
            if f in count:
                count[f] -= 1
                if count[f] == 1 and f in available:
                    queue.append(f)

    while available:
        while queue:
            s = queue.popleft()
            if s not in available or count[s] != 1:
                continue
            tops = [t for t in cofaces.get(s, ()) if t in available]
            if len(tops) != 1 or tops[0] == s:
                continue
            t = tops[0]
            pairs.append((t, s))
            remove(s)
            remove(t)
        if available:
            # deterministically give up on one cell (it stays critical):
            # the least by (dimension, chain), which is the least id
            remove(min(available))
    return pairs


def greedy_internal_matching(a, complex_=None):
    """Internal acyclic matching by coreduction, stratified by the maximal
    chain element (pairs always share it), then augmented to be maximal by
    inclusion.  Arrow cells stay unmatched, so the result is internal on
    ungraded algebras too; internality and acyclicity are still checked
    (MatchingError)."""
    require_cancellative(a)
    x = complex_ if complex_ is not None else build_realization(a)
    pairs = []
    for cells in _cells_by_max(x).values():
        pairs.extend(_greedy_on_cells(x, cells))
    return _augment(x, pairs).require_valid()


def _augment(x, pairs):
    """The matching of `pairs` plus every internal pair (top, middle facet)
    that keeps it acyclic, tried in cell order until none fits.  `pairs`
    must be an acyclic matching, so a new pair can only close a cycle
    through its own bottom, inside that bottom's stratum: only that search
    is run."""
    top, bottom = [-1] * len(x.last), [-1] * len(x.last)
    for t, b in pairs:
        top[b], bottom[t] = t, b
    color = bytearray(len(top))
    changed = True
    while changed:
        changed = False
        for k in range(2, x.max_dim + 1):
            for t in x.cells[k]:
                if top[t] >= 0 or bottom[t] >= 0:
                    continue
                for f in x.faces(t)[1:-1]:
                    if top[f] >= 0 or bottom[f] >= 0 or _is_arrow_cell(x, f):
                        continue
                    top[f] = t
                    if _find_cycle(x, top, [f], True, color) is None:
                        bottom[t] = f
                        changed = True
                        break
                    top[f] = -1
    return Matching(x, [(t, b) for t, b in enumerate(bottom) if b >= 0])


def babson_hersh_matching(a, complex_=None):
    """Lexicographic interval matching of the cells of a CellComplex: each
    cell paired as _Gradient.partner reads it off the shellings, and the
    cells of a class that its order does not shell matched by greedy
    coreduction, then grown by _augment.  A truncated complex keeps the
    pairs whose top it holds, still an acyclic matching of it.
    Internality and acyclicity are checked (MatchingError).  Where every
    class shells, babson_hersh_complex gives its Morse complex without the
    cells."""
    require_cancellative(a)
    x = complex_ if complex_ is not None else build_realization(a)
    grad, pairs = _Gradient(a, x.max_dim), []
    for p, cells in _cells_by_max(x).items():
        if grad.facets(p) is None:
            pairs += _greedy_on_cells(x, cells)
            continue
        for b in cells:  # a bottom's top may lie above the cap
            match = grad.partner(x.chain(b))
            if match and (t := x.cell(match[0])) is not None:
                pairs.append((t, b))
    fallbacks = [p for p in range(len(a.classes))
                 if not a.is_trivial(p) and lex_shelling(a, p) is None]
    # greedy leftovers may admit further pairs; keep the matching as large
    # as possible so minimality still has a chance
    m = _augment(x, pairs) if fallbacks else Matching(x, pairs)
    m.fallback_classes = fallbacks
    return m.require_valid()


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


def _cell_from_json(x, item, key):
    a = x.hpa
    data = _field(item, key, lambda v: isinstance(v, dict), 'an object')
    tail = _field(data, 'tail', lambda v: isinstance(v, str), 'a vertex name')
    chain = _field(data, 'chain', _is_chain,
                   'a nonempty list of label lists')
    classes = tuple(a.word_class(a.quiver.word(tail, tuple(labels)))
                    for labels in chain)
    c0 = classes[0]
    if not a.is_trivial(c0):
        # rebase a chain written with a nontrivial first entry
        classes = (a.trivial_class[a.head(c0)],) + tuple(
            a.divide(c0, c) for c in classes[1:])
    cell = x.cell(classes)
    if cell is None:
        raise MatchingError(f"not a cell of the realization: {classes}")
    return cell


def matching_from_json(data, complex_):
    """Load a matching fixture.  Chains may be written with a nontrivial
    first entry (they are rebased to canonical cells).  Identical pairs
    collapse to one; the same cell in two different pairs is an error."""
    raw = []
    for item in _field(data, 'pairs', lambda v: isinstance(v, list),
                       'a list'):
        raw.append((_cell_from_json(complex_, item, 'top'),
                    _cell_from_json(complex_, item, 'bottom')))
    chain = complex_.chain
    dedup = sorted(set(raw), key=lambda pair: (chain(pair[0]), chain(pair[1])))
    return Matching(complex_, dedup)


def load_matching(path, complex_):
    with open(path, encoding='utf-8') as f:
        return matching_from_json(json.load(f), complex_)

