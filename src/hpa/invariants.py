"""Tor/Betti invariants through interval homology, shellability of
intervals, and Koszulity verdicts.

The central fact: Tor_i(S_v, S_w) is the direct sum, over nontrivial path
classes p from v to w, of the reduced homology H~_{i-2} of the order complex
of the open interval (e_{t(p)}, p), with the convention H~_{-1}(empty) = R.
`tor_table` reads a summand off the lexicographic shelling of its interval,
the one the Babson-Hersh matching uses, and only where that order is not a
shelling takes the reduced homology of the complex that the interval's
maximal chains generate.  `hpa morse` checks the resolution side against
`tor_table`.

The Morse and toric layers are imported inside the functions that use
them, so that `betti_table` loads neither.
"""

import csv
import io
from itertools import combinations

from . import RING_Z
from .algebra import require_cancellative
from .linalg import homology
from .realization import (format_chain, maximal_chains, spheres,
                          unshelled_chains)


class OrderComplex:
    """The simplicial complex that the chains `facets` of a poset generate,
    each a tuple in poset order (an interval's maximal chains generate its
    order complex): simplices[k] holds the sorted k-element subchains."""

    def __init__(self, facets):
        top = max(map(len, facets), default=0)
        self.simplices = [sorted({s for f in facets for s in
                                  combinations(f, k)}) for k in range(top + 1)]

    def counts(self):
        return [len(s) for s in self.simplices]


def reduced_homology(facets, ring=RING_Z):
    """{k: (rank, torsion)} for k >= -1 of `OrderComplex(facets)`.  Degree
    j of the chain complex holds the (j-1)-simplices, so a vertex's boundary
    is the augmentation and facets [()] give H~_{-1} = R."""
    def boundary(s):
        return [((-1) ** i, s[:i] + s[i + 1:]) for i in range(len(s))]
    h = homology(OrderComplex(facets).simplices, boundary, ring)
    return {j - 1: (rank, tors) for j, (rank, tors) in h.items()
            if rank or tors}


def _elementary_divisors(factors):
    """Invariant factors -> sorted prime-power list, so direct sums compare
    structurally."""
    out = []
    for n in factors:
        n = abs(n)
        d = 2
        while d * d <= n:
            if n % d == 0:
                q = 1
                while n % d == 0:
                    n //= d
                    q *= d
                out.append(q)
            d += 1
        if n > 1:
            out.append(n)
    return sorted(out)


def nonzero_groups(h):
    """A homology dict {degree: (rank, torsion)} in the sparse shape of Tor:
    nonzero groups only, torsion as elementary divisors."""
    return {i: (rank, _elementary_divisors(tors))
            for i, (rank, tors) in sorted(h.items()) if rank or tors}


def tor_table(a, ring=RING_Z):
    """{(v, w): Tor_i(S_v, S_w) over `ring`} on the pairs a class joins,
    by vertex declaration order (Tor is 0 on the others), each a sparse
    dict {degree: (rank, elementary divisors)}, from one pass over the
    classes.  A trivial class adds R in degree 0.  An interval whose
    lexicographic order is a shelling is a wedge of spheres, one
    S^{|F_j|-1} per facet with R_j = F_j (Bjorner-Wachs, nonpure shellings
    included; `realization.spheres`), so it adds a free generator in degree
    |F_j| + 1 for each; any other interval adds H~_{i-2} of the complex its
    maximal chains (`realization.unshelled_chains`) generate in degree i."""
    pos = {v: n for n, v in enumerate(a.quiver.vertices)}
    acc = {}
    for c in sorted(a.classes, key=lambda c: (pos[c.tail], pos[c.head])):
        if c.is_trivial:
            summands = [(0, 1, [])]
        elif (sizes := spheres(a, c.id)) is None:
            h = reduced_homology(unshelled_chains(a, c.id), ring)
            summands = [(k + 2, rank, tors) for k, (rank, tors) in h.items()]
        else:
            summands = [(n + 1, 1, []) for n in sizes]
        cur = acc.setdefault((c.tail, c.head), {})
        for i, rank, tors in summands:
            r, t = cur.get(i, (0, []))
            cur[i] = (r + rank, t + tors)
    return {pair: nonzero_groups(h) for pair, h in acc.items()}


class BettiTable:
    def __init__(self, table, warnings):
        self.table = table  # {(degree, v, w): rank}
        self.warnings = warnings  # [(degree, v, w, divisors)]

    def totals(self):
        top = max((d for d, _, _ in self.table), default=0)
        out = [0] * (top + 1)
        for (d, _, _), r in self.table.items():
            out[d] += r
        return out

    def to_json(self):
        entries = [{'degree': d, 'tail': v, 'head': w, 'rank': r}
                   for (d, v, w), r in sorted(self.table.items())]
        warn = [{'degree': d, 'tail': v, 'head': w,
                 'torsion': tors,
                 'message': 'no minimal projective resolution over Z: '
                            'integral torsion present'}
                for d, v, w, tors in self.warnings]
        return {'entries': entries, 'totals': self.totals(),
                'warnings': warn}

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(['degree', 'tail', 'head', 'rank'])
        for (d, v, w), r in sorted(self.table.items()):
            writer.writerow([d, v, w, r])
        return buf.getvalue()


def betti_table(a):
    """Predicted generator counts of the minimal resolution, from
    `tor_table` over Z.  Torsion anywhere is flagged: a minimal projective
    bimodule resolution cannot exist over Z then.  Refuses a non-cancellative
    algebra."""
    require_cancellative(a)
    table = {}
    warnings = []
    for (v, w), tor in tor_table(a).items():
        for i, (rank, tors) in tor.items():
            if rank:
                table[i, v, w] = rank
            if tors:
                warnings.append((i, v, w, tors))
    return BettiTable(table, warnings)


# ---------------------------------------------------------------------------
# Shellability


def interval_chains(a):
    """{p: the maximal chains of the open interval (e_{t(p)}, p)} over the
    nontrivial classes p, as `realization.maximal_chains` gives them."""
    return {p: maximal_chains(a, a.trivial_class[a.tail(p)], p)
            for p in range(len(a.classes)) if not a.is_trivial(p)}


def el_shellable(a, ranks, chains):
    """The predicate 'the closed interval [e_{t(p)}, p] is EL-shellable',
    memoized per class: every closed subinterval has exactly one weakly
    increasing maximal chain, and its labels are strictly lexicographically
    least (Bjorner-Wachs).  A cover is labeled by the rank (`ranks`, keyed
    by arrow label) of the least arrow label of its class; `chains` is
    `interval_chains(a)`.  Division by u maps a subinterval [u, w] onto
    [e, u\\w] and keeps the labels, so [e, p] passes when it does itself
    and, recursively, [e, a\\p] does for each atom a and [e, c] for each
    coatom c.  A failure means 'unknown', not a disproof."""
    rank_of = {}
    for label in sorted(a.arrow_class):
        rank_of.setdefault(a.arrow_class[label], ranks[label])
    memo = {}

    def shellable(p):
        if p not in memo:
            e = a.trivial_class[a.tail(p)]
            labels = [tuple(rank_of[a.divide(z1, z2)]
                            for z1, z2 in zip((e,) + ch, ch + (p,)))
                      for ch in chains[p]]
            rising = [t for t in labels
                      if all(x <= y for x, y in zip(t, t[1:]))]
            memo[p] = (len(rising) == 1 and rising[0] == min(labels) and
                       all(shellable(a.divide(ch[0], p)) and shellable(ch[-1])
                           for ch in chains[p] if ch))
        return memo[p]
    return shellable


# ---------------------------------------------------------------------------
# Koszulity


class KoszulVerdict:
    def __init__(self, status, method=None, payload=None):
        self.status = status  # koszul-certified | not-koszul | unknown
        self.method = method
        self.payload = payload or {}

    def __repr__(self):
        return f"KoszulVerdict({self.status!r}, method={self.method!r})"

    def to_json(self):
        return {'status': self.status, 'method': self.method,
                'certificate': self.payload}


def _default_labelings(a):
    """Candidate rank maps {arrow label: rank}: declaration order, and
    arrows ranked by their base name (label up to a trailing
    disambiguator)."""
    labels = [ar.label for ar in a.quiver.arrows]
    yield {label: i for i, label in enumerate(labels)}
    bases = {label: label.split('@')[0].rstrip("'") for label in labels}
    order = sorted(set(bases.values()))
    if len(order) < len(labels):
        yield {label: order.index(base) for label, base in bases.items()}


def koszul_check(a):
    """Sufficient-condition Koszulity verdict.

    Tried in order: (i) a directable toric presentation (when the algebra
    was built from weight data, the only case that loads the toric layer),
    (ii) every interval shellable: a single maximal chain, an antichain, or
    EL-shellable under some candidate labeling, (iii) the lexicographic
    Morse complex is minimal, in which case linearity decides outright.
    """
    require_cancellative(a)
    if not a.graded:
        raise ValueError("koszul_check requires a length-graded algebra")

    order = None
    if getattr(a, 'toric_monomials', None) is not None:
        from .toric import check_directable
        try:
            order = check_directable(a)
        except ValueError:  # an arrow that is not a single variable
            pass
    if order:
        return KoszulVerdict('koszul-certified', 'directable',
                             {'variable_order': order})

    chains = interval_chains(a)
    shellable = [el_shellable(a, ranks, chains)
                 for ranks in _default_labelings(a)]
    # structural shellability, independent of any labeling, is tested on
    # the top interval only: a single maximal chain (the empty interval
    # included) or an antichain
    if all(len(chs) == 1 or all(len(ch) == 1 for ch in chs) or
           any(el(p) for el in shellable) for p, chs in chains.items()):
        return KoszulVerdict('koszul-certified', 'shellable-intervals',
                             {'intervals': len(chains)})

    # only this last certificate needs the Morse complex, walked on chains
    # (see hpa.morse)
    from .morse import (MorseComplex, babson_hersh_matching, check_linear,
                        check_minimal)
    mc = MorseComplex(babson_hersh_matching(a))
    if check_minimal(mc).ok:
        lin = check_linear(mc)
        if lin.ok:
            return KoszulVerdict('koszul-certified', 'minimal-linear',
                                 {'criticals': mc.counts()})
        cell, tgt, ll, lr = lin.witnesses[0]
        return KoszulVerdict(
            'not-koszul', 'minimal-nonlinear',
            {'cell': format_chain(a, cell),
             'target': format_chain(a, tgt),
             'coefficient_lengths': [ll, lr]})
    return KoszulVerdict('unknown', None,
                         {'reason': 'no minimal Morse complex found'})
