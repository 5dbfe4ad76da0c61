"""Internal acyclic matchings and the Morse complexes they give of the
bimodule resolution and of the cellular chain complex.

A matching pairs k-cells with (k-1)-facets.  Internality (no cell from Q_0 or
Q_1 matched, matched pairs share tail and head) forces every matched facet to
be a middle face: dropping the first entry changes the tail and dropping the
last changes the head (the quiver is acyclic, so a proper quotient cannot be
a loop).  Middle faces carry trivial coefficients and incidence +-1, which is
what lets the matched pairs be cancelled.

Gradient flow: a non-critical bottom sigma matched with top tau satisfies
0 ~ d(tau) = eps.sigma + sum(other faces), so sigma is rewritten as
-eps^{-1} sum s_f . l_f [f] r_f and the rewriting is iterated; acyclicity
makes the recursion well founded.  The Morse differential of a critical cell
composes its boundary terms with these flows.  One walk serves both
complexes through a boundary rule of (coefficient, face) pairs: coefficients
are (sign, l, r) on the bimodule resolution and signs on the cells.
"""

import functools
import json
from collections import deque

from . import RING_Z, UsageError
from .algebra import Report, require_cancellative
from .linalg import accumulate
from .realization import build_realization, chain_complex, homology


class MatchingError(ValueError):
    pass


class MatchingFileError(UsageError):
    """A matching file of the wrong shape."""


class Matching:
    """A set of (top, bottom) cell pairs, bottom a facet of top, no cell used
    twice.  Holds a reference to the complex it lives on, and the reports of
    check_internal and check_acyclic, run once here, as `internal` and
    `acyclic`."""

    def __init__(self, complex_, pairs):
        self.complex = complex_
        seen = set()
        norm = []
        for top, bottom in pairs:
            if top not in complex_.index:
                raise MatchingError(f"unknown cell {top}")
            if bottom not in complex_.index:
                raise MatchingError(f"unknown cell {bottom}")
            if bottom not in complex_.faces(top):
                raise MatchingError(
                    f"{complex_.format_cell(bottom)} is not a facet of "
                    f"{complex_.format_cell(top)}")
            for cell in (top, bottom):
                if cell in seen:
                    raise MatchingError(
                        f"cell {complex_.format_cell(cell)} matched twice")
                seen.add(cell)
            norm.append((top, bottom))
        self.pairs = sorted(norm)
        self.top_of = {b: t for t, b in self.pairs}
        self.bottom_of = {t: b for t, b in self.pairs}
        self.cells = seen
        self.internal = check_internal(self)
        self.acyclic = check_acyclic(self)

    def is_matched(self, cell):
        return cell in self.cells

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


def _is_arrow_cell(hpa, cell):
    """1-cell [e_v < p] with p the class of an arrow."""
    return len(cell) == 2 and cell[1] in hpa.arrow_class.values()


def check_internal(m):
    """Internality: no Q_0 or Q_1 cell matched; pairs share tail and head.
    A witness is (reason, formatted cell or pair)."""
    x = m.complex
    witnesses = []
    for top, bottom in m.pairs:
        for cell in (top, bottom):
            if len(cell) == 1:
                witnesses.append(
                    ('vertex cell matched', x.format_cell(cell)))
            elif _is_arrow_cell(x.hpa, cell):
                witnesses.append(
                    ('arrow cell matched', x.format_cell(cell)))
        if x.tail(top) != x.tail(bottom) or x.head(top) != x.head(bottom):
            witnesses.append(
                ('pair changes stratum',
                 f"{x.format_cell(top)} ~ {x.format_cell(bottom)}"))
    return Report(witnesses, len(m.pairs))


def _stratum(x, cell):
    return (len(cell), x.tail(cell), x.head(cell))


def _find_cycle(x, top_of, start, key, color):
    """Depth-first search from the matched bottom `start` along the steps
    s -> f, f a face of top_of[s] other than s that is a matched bottom with
    key(f) == key(s).  `color` marks cells on the current path (1) or done
    (2) and carries over between calls.  Returns the first cycle closed, as
    the alternating list bottom, top, ..., bottom, or None."""
    def steps(s):
        k = key(s)
        return iter([f for f in x.faces(top_of[s])
                     if f != s and f in top_of and key(f) == k])

    if color.get(start):
        return None
    color[start] = 1
    path = [start]
    stack = [steps(start)]
    while stack:
        for nxt in stack[-1]:
            state = color.get(nxt, 0)
            if state == 1:
                loop = path[path.index(nxt):]
                return [c for s in loop for c in (s, top_of[s])] + [nxt]
            if state == 0:
                color[nxt] = 1
                path.append(nxt)
                stack.append(steps(nxt))
                break
        else:
            color[path.pop()] = 2
            stack.pop()
    return None


def check_acyclic(m):
    """Cycle detection on the Hasse digraph with matched edges upward.

    A directed cycle alternates matched-up and facet-down steps, so it only
    visits matched bottoms of a fixed dimension; for internal matchings
    (read from m.internal) it also stays inside one (tail, head) stratum,
    which cuts the search.  The witness is a replayable alternating cycle.
    """
    x = m.complex
    key = functools.partial(_stratum, x) if m.internal.ok else len
    color = {}
    for s in sorted(m.top_of, key=lambda c: (key(c), c)):
        cycle = _find_cycle(x, m.top_of, s, key, color)
        if cycle:
            return Report([cycle], len(m.top_of))
    return Report([], len(m.top_of))


# ---------------------------------------------------------------------------
# Morse complex


class MorseComplex:
    """Critical cells with the gradient-path differential; exposes the same
    generators/terms interface as BimoduleComplex."""

    def __init__(self, hpa, cells_by_dim, terms, matching):
        self.hpa = hpa
        self.cells = cells_by_dim
        self._terms = terms
        self.matching = matching

    @property
    def top(self):
        return len(self.cells) - 1

    def generators(self, k):
        if 0 <= k <= self.top:
            return self.cells[k]
        return []

    def terms(self, cell):
        return self._terms.get(cell, [])

    def counts(self):
        return [len(cs) for cs in self.cells]


def _matched_entry(boundary, top, bottom, sign_of):
    """Sign +-1 of the matched facet `bottom` in boundary(top), read from its
    coefficient by sign_of (0 if not invertible).  Raises MatchingError
    unless the facet occurs once, with an invertible coefficient."""
    hits = [coef for coef, f in boundary(top) if f == bottom]
    if len(hits) != 1:
        raise MatchingError("matched facet not unique in boundary")
    s = sign_of(hits[0])
    if s not in (1, -1):
        raise MatchingError(
            "matched pair has a non-invertible incidence coefficient")
    return s


def _morse_differential(boundary, m, critical, sign_of, critical_flow,
                        compose):
    """{critical cell tau of dimension >= 1: flow of boundary(tau)}.  A flow
    is a sparse dict {target: integer}; critical_flow(s) is that of a
    critical cell s, and compose(scale, [(coefficient, flow), ...]) sums
    scale times each coefficient applied to its flow."""
    def matched_flow(tau, s, deps):
        return compose(-_matched_entry(boundary, tau, s, sign_of), deps)

    out = {}
    for k in range(1, len(critical)):
        flow_of = _gradient_flow(boundary, m, critical_flow, matched_flow)
        for tau in critical[k]:
            out[tau] = compose(1, [(coef, flow_of(f))
                                   for coef, f in boundary(tau)])
    return out


def morse_complex(c, m):
    """Morse complex of the bimodule resolution c under the matching m.

    Raises MatchingError unless m is internal and acyclic.  With the empty
    matching this reproduces c itself.
    """
    m.require_valid()
    a = c.hpa
    x = c.complex
    critical = _critical_cells(x, m)

    def boundary(cell):
        return [((sign, l, r), f) for sign, l, f, r in c.terms(cell)]

    def sign_of(coef):
        sign, l, r = coef
        return sign if a.is_trivial(l) and a.is_trivial(r) else 0

    # a flow is {(l, critical target, r): coefficient}
    def critical_flow(s):
        return {(a.trivial_class[x.tail(s)], s, a.trivial_class[x.head(s)]): 1}

    def compose(scale, deps):
        acc = {}
        for (sign, l, r), flow in deps:
            for (l2, tgt, r2), cf in flow.items():
                accumulate(acc, (a.mult(l, l2), tgt, a.mult(r2, r)),
                           scale * sign * cf)
        return acc

    d = _morse_differential(boundary, m, critical, sign_of, critical_flow,
                            compose)
    terms = {tau: [(cf, l, tgt, r) for (l, tgt, r), cf in sorted(acc.items())]
             for tau, acc in d.items()}
    while critical and not critical[-1]:
        critical.pop()
    return MorseComplex(a, critical, terms, m)


def cw_morse_complex(m, ring=RING_Z):
    """The cellular chain complex of m.complex reduced by m: critical cells,
    with the differential along gradient paths.

    m.require_valid() tests acyclicity within (tail, head) strata, and that
    covers the whole face graph: face 0 moves a cell to a later tail, the top
    face to an earlier head, middle faces keep both, so a gradient path that
    leaves a stratum never returns.  Every cycle lies in one stratum (the
    patchwork theorem, Kozlov, Combinatorial Algebraic Topology, Thm 11.10).
    """
    m.require_valid()
    x = m.complex
    critical = _critical_cells(x, m)

    def compose(scale, deps):
        acc = {}
        for coef, flow in deps:
            for tgt, n in flow.items():
                accumulate(acc, tgt, scale * coef * n)
        return acc

    d = _morse_differential(x.boundary, m, critical, lambda coef: coef,
                            lambda s: {s: 1}, compose)
    return chain_complex(
        critical, lambda tau: [(n, tgt) for tgt, n in d[tau].items()], ring)


def morse_homology(m, ring=RING_Z):
    """homology() of the untruncated complex m.complex, computed on
    cw_morse_complex(m, ring), with (0, []) in the degrees it lacks.  d^2 = 0
    is checked symbolically on every cell first."""
    x = m.complex
    if x.truncated:
        raise ValueError("the Morse path needs an untruncated realization")
    bad = x.d_squared_degree()
    if bad is not None:
        raise ValueError(f"d^2 != 0 at degree {bad}")
    h = homology(cw_morse_complex(m, ring))
    return {k: h.get(k, (0, [])) for k in range(x.max_dim + 1)}


def _critical_cells(x, m):
    return [[cell for cell in x.cells[k] if not m.is_matched(cell)]
            for k in range(x.max_dim + 1)]


def _gradient_flow(boundary, m, critical_flow, matched_flow):
    """Memoized flow of cells along gradient paths, by an iterative
    post-order walk; boundary(cell) gives (coefficient, face) pairs.  A
    critical cell s flows to critical_flow(s), a cell matched downward to
    nothing, and a cell s matched up with tau to matched_flow(tau, s, deps),
    where deps lists (coefficient, flow of f) for the other faces f of tau.
    Acyclicity makes the walk terminate."""
    flow = {}

    def flow_of(s0):
        stack = [s0]
        while stack:
            s = stack[-1]
            if s in flow:
                stack.pop()
                continue
            if not m.is_matched(s):
                flow[s] = critical_flow(s)
            elif s in m.bottom_of:  # matched downward: paths end, not critical
                flow[s] = {}
            else:
                tau = m.top_of[s]
                deps = [(coef, f) for coef, f in boundary(tau) if f != s]
                missing = [f for _, f in deps if f not in flow]
                if missing:
                    stack.extend(missing)
                    continue
                flow[s] = matched_flow(
                    tau, s, [(coef, flow[f]) for coef, f in deps])
            stack.pop()
        return flow[s0]

    return flow_of


# ---------------------------------------------------------------------------
# Matching constructions


def _maximal_chains(a, u, w):
    """Maximal chains of the open interval (u, w) of the division order, for
    u < w: the walks from u to w along upper covers, without their ends.
    The chain () means that w covers u."""
    chains = []
    stack = [(u, ())]
    while stack:
        z, chain = stack.pop()
        for c in a.covers(z):
            if c == w:
                chains.append(chain)
            elif a.leq(c, w):
                stack.append((c, chain + (c,)))
    return chains


def _cells_by_max(x):
    """{p: the cells of dimension >= 1 whose chain ends at p}."""
    out = {}
    for k in range(1, x.max_dim + 1):
        for cell in x.cells[k]:
            out.setdefault(cell[-1], []).append(cell)
    return out


def _greedy_on_cells(x, cells):
    """Coreduction on a family of cells closed under 'shares max element':
    repeatedly match a bottom with its only available coface via a middle
    face; when stuck, set aside one cell as critical."""
    available = set(cells)
    middle = {}
    cofaces = {}
    for cell in cells:
        if len(cell) >= 3:
            ms = x.faces(cell)[1:-1]
            middle[cell] = ms
            for f in ms:
                cofaces.setdefault(f, []).append(cell)
    count = {cell: sum(1 for t in cofaces.get(cell, ()) if t in available)
             for cell in cells}

    pairs = []
    queue = deque(sorted(c for c in cells if count[c] == 1))

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
            # deterministically give up on one cell (it stays critical)
            remove(min(available, key=lambda cell: (len(cell), cell)))
    return pairs


def greedy_internal_matching(a, complex_=None):
    """Internal acyclic matching by coreduction, stratified by the maximal
    chain element (pairs always share it), then augmented to be maximal by
    inclusion.  Raises MatchingError when the result is not internal: in an
    ungraded algebra coreduction can pair an arrow cell."""
    require_cancellative(a)
    x = complex_ if complex_ is not None else build_realization(a)
    pairs = []
    for cells in _cells_by_max(x).values():
        pairs.extend(_greedy_on_cells(x, cells))
    return _augment(a, x, pairs).require_valid()


def _augment(a, x, pairs):
    """The matching of `pairs` plus every internal pair (top, middle facet)
    that keeps it acyclic, tried in cell order until none fits.  `pairs`
    must be an acyclic matching, so a new pair can only close a cycle
    through its own bottom, inside that bottom's stratum: only that search
    is run."""
    top_of = {b: t for t, b in pairs}
    matched = set(top_of) | set(top_of.values())
    stratum = functools.partial(_stratum, x)
    changed = True
    while changed:
        changed = False
        for k in range(2, x.max_dim + 1):
            for top in x.cells[k]:
                if top in matched:
                    continue
                for f in x.faces(top)[1:-1]:
                    if f in matched or _is_arrow_cell(a, f):
                        continue
                    top_of[f] = top
                    if _find_cycle(x, top_of, f, stratum, {}) is None:
                        matched.update((top, f))
                        changed = True
                        break
                    del top_of[f]
    return Matching(x, [(t, b) for b, t in top_of.items()])


def babson_hersh_matching(a, complex_=None):
    """Lexicographic interval matching.

    For each nontrivial class p, the maximal chains of the open interval
    (e_{t(p)}, p) are ordered lexicographically by canonical words; the
    shelling restriction sets R_j yield a perfect matching on the
    non-critical faces, with the empty face matched into the first facet —
    that reproduces the extra pairing [e < p] ~ [e < t < p] with t the
    lexicographically least toggle.  Interval faces lift to cells by
    sandwiching between e_{t(p)} and p.  When that order fails the shelling
    condition for some p (a non-shellable interval), that class falls back
    to greedy coreduction on its own cells.  On a truncated complex only the
    pairs whose top cell it holds are kept.  Internality and acyclicity of
    the result are checked, not assumed (MatchingError).
    """
    require_cancellative(a)
    x = complex_ if complex_ is not None else build_realization(a)
    pairs = []
    fallbacks = []

    for p in range(len(a.classes)):
        if a.is_trivial(p):
            continue
        e = a.trivial_class[a.tail(p)]
        chains = _maximal_chains(a, e, p)
        if chains == [()]:
            continue  # empty interval: the 1-cell [e < p] stays critical
        chains.sort(key=lambda ch: tuple(a.quiver.word_key(a.cls(c).rep)
                                         for c in ch))

        def lift(face_set, chain):
            ordered = tuple(sorted(face_set, key=chain.index))
            return (e,) + ordered + (p,)

        facet_sets = [frozenset(ch) for ch in chains]
        new_pairs = []
        ok = True
        seen_faces = set()
        for j, ch in enumerate(chains):
            fj = facet_sets[j]
            rj = set()
            for v in fj:
                rest = fj - {v}
                if any(rest <= facet_sets[i] for i in range(j)):
                    rj.add(v)
            # shelling condition: the new faces of F_j must be exactly the
            # interval [R_j, F_j].  Both directions matter: R_j = empty with
            # the empty face already seen is how a disjoint union sneaks in.
            subsets = [frozenset()]
            for v in ch:
                subsets += [s | {v} for s in subsets]
            for s in subsets:
                if (rj <= s) == (s in seen_faces):
                    ok = False
                    break
            if not ok:
                break
            free = sorted(fj - rj,
                          key=lambda z: a.quiver.word_key(a.cls(z).rep))
            if not free:
                pass  # R_j = F_j: single new face, critical
            else:
                toggle = free[0]
                rest = [v for v in free if v != toggle]
                tsets = [frozenset()]
                for v in rest:
                    tsets += [s | {v} for s in tsets]
                for t in tsets:
                    low = frozenset(rj) | t
                    new_pairs.append((lift(low | {toggle}, ch), lift(low, ch)))
            seen_faces.update(subsets)

        if ok:
            pairs.extend(pr for pr in new_pairs if pr[0] in x.index)
        else:
            fallbacks.append(p)

    if fallbacks:
        by_max = _cells_by_max(x)
        for p in fallbacks:
            pairs.extend(_greedy_on_cells(x, by_max.get(p, ())))
        # greedy leftovers may admit further pairs; keep the matching as
        # large as possible so minimality still has a chance
        m = _augment(a, x, pairs)
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


def _field(data, key):
    try:
        return data[key]
    except (KeyError, TypeError):
        raise MatchingFileError(f"matching file: missing {key!r}") from None


def _cell_from_json(x, data):
    a = x.hpa
    tail = _field(data, 'tail')
    chain = _field(data, 'chain')
    if not chain:
        raise MatchingError("empty chain")
    classes = []
    for labels in chain:
        w = a.quiver.word(tail, tuple(labels))
        classes.append(a.word_class(w))
    if not a.is_trivial(classes[0]):
        # rebase a chain written with a nontrivial first entry
        c0 = classes[0]
        rebased = [a.trivial_class[a.head(c0)]]
        for c in classes[1:]:
            rebased.append(a.divide(c0, c))
        classes = rebased
    cell = tuple(classes)
    if cell not in x.index:
        raise MatchingError(f"not a cell of the realization: {cell}")
    return cell


def matching_from_json(data, complex_):
    """Load a matching fixture.  Chains may be written with a nontrivial
    first entry (they are rebased to canonical cells).  Identical pairs
    collapse to one; the same cell in two different pairs is an error."""
    raw = []
    for item in _field(data, 'pairs'):
        top = _cell_from_json(complex_, _field(item, 'top'))
        bottom = _cell_from_json(complex_, _field(item, 'bottom'))
        raw.append((top, bottom))
    dedup = sorted(set(raw))
    return Matching(complex_, dedup)


def load_matching(path, complex_):
    with open(path) as f:
        return matching_from_json(json.load(f), complex_)

