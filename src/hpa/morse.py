"""Internal acyclic matchings and the Morse complexes they give of the
bimodule resolution, and through it of the cellular chain complex.

A matching pairs k-cells with (k-1)-facets.  Internality (no cell from Q_0 or
Q_1 matched, matched pairs share tail and head) forces every matched facet to
be a middle face (see check_acyclic), with trivial coefficients and
incidence +-1, which is what lets the pairs be cancelled.

Gradient flow: a non-critical bottom sigma matched with top tau satisfies
0 ~ d(tau) = eps.sigma + sum(other faces), so sigma is rewritten as
-eps^{-1} sum s_f . l_f [f] r_f, iterated; acyclicity makes the recursion
well founded.  A critical cell flows to itself, a cell matched downward to
nothing.  The Morse differential of a critical cell composes its boundary
terms with these flows.  Forgetting coefficients (l (x) cell (x) r
to cell) turns the resolution into the cellular chains, and its Morse
complex into theirs (Kozlov, Combinatorial Algebraic Topology, 2008, ch. 11).

Cells are the int ids of the realization, and a matching is two flat lists
over them (Matching.top and Matching.bottom).  No report takes its order
from the list of pairs: the internality witnesses follow the chains of
their tops (`x.chain`), and check_acyclic orders its starts itself.
"""

import json
from collections import deque

from . import RING_Z, UsageError
from .algebra import Report, require_cancellative
from .linalg import accumulate
from .realization import build_realization, homology, lex_shelling
from .resolution import BimoduleComplex


class MatchingError(ValueError):
    pass


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


class MorseComplex(BimoduleComplex):
    """Critical cells of the complex x with the gradient-path differential,
    a bimodule complex on the critical cells alone."""

    def __init__(self, hpa, cells_by_dim, terms, x):
        super().__init__(hpa, x)
        self.cells = cells_by_dim
        self._terms = terms

    def terms(self, cell):
        return self._terms.get(cell, [])


def morse_complex(c, m):
    """Morse complex of the bimodule resolution c under the matching m.

    The flows (see the module docstring) come from one iterative post-order
    walk over c.terms, its memo cleared per dimension.  Raises MatchingError
    unless m is internal and acyclic, and when a matched facet that the walk
    reaches does not occur exactly once in the terms of its top, with sign
    +-1 and trivial classes.  With the empty matching this reproduces c.
    """
    m.require_valid()
    a, x, units = c.hpa, c.complex, c.units
    top, bottom = m.top, m.bottom
    critical = [[cell for cell in x.cells[k]
                 if top[cell] < 0 and bottom[cell] < 0]
                for k in range(x.max_dim + 1)]
    flow = {}  # a cell: {(l, critical target, r): coefficient}

    def compose(scale, ts):
        acc = {}
        for sign, l, f, r in ts:
            for (l2, tgt, r2), cf in flow[f].items():
                accumulate(acc, (a.mult(l, l2), tgt, a.mult(r2, r)),
                           scale * sign * cf)
        return acc

    terms = {}
    for k in range(1, len(critical)):
        flow.clear()
        for tau in critical[k]:
            ts = c.terms(tau)
            stack = [f for _, _, f, _ in ts]
            while stack:
                s = stack[-1]
                if s in flow:
                    stack.pop()
                    continue
                if bottom[s] >= 0:  # matched downward: paths end
                    flow[s] = {}
                elif top[s] < 0:
                    el, er = units[x.last[s]]
                    flow[s] = {(el, s, er): 1}
                else:
                    up = c.terms(top[s])
                    deps = [t for t in up if t[2] != s]
                    missing = [t[2] for t in deps if t[2] not in flow]
                    if missing:
                        stack += missing
                        continue
                    if len(deps) != len(up) - 1:
                        raise MatchingError(
                            "matched facet not unique in boundary")
                    eps, l, _, r = next(t for t in up if t[2] == s)
                    if not (eps in (1, -1) and a.is_trivial(l)
                            and a.is_trivial(r)):
                        raise MatchingError(
                            "matched pair has a non-invertible incidence "
                            "coefficient")
                    flow[s] = compose(-eps, deps)
                stack.pop()
            acc = compose(1, ts)
            terms[tau] = [(cf, l, tgt, r)
                          for (l, tgt, r), cf in sorted(acc.items())]
    while critical and not critical[-1]:
        critical.pop()
    return MorseComplex(a, critical, terms, x)


def morse_homology(m, ring=RING_Z):
    """The cellular homology of the complex m.complex, with (0, []) in the
    degrees it lacks, computed on the Morse complex of its resolution with
    the coefficients forgotten: the boundary of a critical tau is the sum of
    cf . target over its terms (cf, l, target, r).  A complex truncated by
    max_dim reports only the degrees below its cap, whose homology it
    determines.  d^2 = 0 is checked symbolically on every cell first."""
    x = m.complex
    bad = x.d_squared_degree()
    if bad is not None:
        raise ValueError(f"d^2 != 0 at degree {bad}")
    mc = morse_complex(BimoduleComplex(x.hpa, x), m)
    h = homology(
        mc.cells, lambda tau: [(cf, tgt) for cf, _, tgt, _ in mc.terms(tau)],
        ring)
    return {k: h.get(k, (0, [])) for k in range(x.max_dim + 1 - x.truncated)}


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
    """Lexicographic interval matching.

    For each nontrivial class p, the restriction sets R_j of the shelling
    `lex_shelling(a, p)` match the non-critical faces of the interval
    (e_{t(p)}, p) perfectly, the empty face into the first facet ([e < p] ~
    [e < t < p], t the least toggle); a facet with R_j = F_j stays critical.
    Faces lift to cells between e_{t(p)} and p, all pairs of a facet in one
    walk down the simplex tree (x.children).  For the class of an arrow
    (an ungraded algebra reaches it by longer paths too) the empty face
    keeps no pair, so the arrow cell stays unmatched.  A class that order
    does not shell falls back to greedy coreduction on its own cells.  A
    truncated complex keeps the pairs whose top it holds, still an acyclic
    matching of it.  Internality and acyclicity are checked (MatchingError).
    """
    require_cancellative(a)
    x = complex_ if complex_ is not None else build_realization(a)
    children = x.children
    pairs = []
    fallbacks = []

    for p in range(len(a.classes)):
        if a.is_trivial(p):
            continue
        shelling = lex_shelling(a, p)
        if shelling is None:
            fallbacks.append(p)
            continue
        root = x.vertex[a.tail(p)]
        arrow = 1 in a.classes[p].lengths
        for ch, rj in shelling:
            toggle = min(set(ch) - rj, default=None)
            if toggle is None:
                continue
            # (top, bottom) pairs walked down the chain: R_j and p step both,
            # a free element doubles the pairs, the toggle steps the top; a
            # pair goes when its top has no child (a truncated complex)
            lifted = [(root, root)]
            for v in ch + (p,):
                step = [(u, b if v == toggle else children[b][v])
                        for t, b in lifted
                        if (u := (children[t] or {}).get(v)) is not None]
                free = v != toggle and v not in rj and v != p
                lifted = lifted + step if free else step
            # with R_j empty the first bottom is the empty face, [e < p]
            pairs += lifted[arrow and not rj:]

    if fallbacks:
        by_max = _cells_by_max(x)
        for p in fallbacks:
            pairs.extend(_greedy_on_cells(x, by_max.get(p, ())))
        # greedy leftovers may admit further pairs; keep the matching as
        # large as possible so minimality still has a chance
        m = _augment(x, pairs)
    else:
        m = Matching(x, pairs)
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

