"""Tor/Betti invariants through interval homology, shellability of
intervals, and Koszulity verdicts.

The central fact: Tor_i(S_v, S_w) is the direct sum, over nontrivial path
classes p from v to w, of the reduced homology H~_{i-2} of the order complex
of the open interval (e_{t(p)}, p), with the convention H~_{-1}(empty) = R.
The cells (e, *G, p) of the realization that end at p are that order
complex, (e, p) its empty simplex, so its simplices lie two degrees up.
`tor_table` reads a summand off the lexicographic shelling of its interval,
the one the Babson-Hersh matching uses, and only where that order is not a
shelling eliminates those cells (`OrderComplex`).  `hpa morse` checks the
resolution side against `tor_table`.  `el_shellable` decides the
EL-shellability of every interval in one pass over the covers.

The Morse and toric layers are imported inside the functions that use
them, so that `betti_table` loads neither.
"""

import csv
import io
from itertools import groupby

from . import RING_Z
from .algebra import require_cancellative
from .linalg import homology
from .realization import format_chain, spheres, stratum


class OrderComplex:
    """The order complex of the open interval (e_{t(p)}, p) as the cells
    (e, *G, p) of `realization.stratum`: cells[i] holds those of dimension
    i, that is the simplices G with i - 1 elements, (e, p) the empty one."""

    def __init__(self, a, p):
        self.cells = [[]] + [list(cs) for _, cs in
                             groupby(stratum(a, p, len(a.classes)), len)]

    def counts(self):
        """Simplices per dimension, the empty simplex first."""
        return [len(cs) for cs in self.cells[1:]]

    def homology(self, ring=RING_Z):
        """{i: (rank, torsion)} under the middle faces, face i with sign
        (-1)^i for 0 < i < k: H~_{i-2} of the interval in degree i."""
        return homology(self.cells, lambda c: [
            (-1 if i % 2 else 1, c[:i] + c[i + 1:])
            for i in range(1, len(c) - 1)], ring)


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
    |F_j| + 1 for each; any other interval adds the homology of its
    `OrderComplex` in degree i."""
    pos = {v: n for n, v in enumerate(a.quiver.vertices)}
    acc = {}
    for c in sorted(a.classes, key=lambda c: (pos[c.tail], pos[c.head])):
        if c.is_trivial:
            summands = [(0, 1, [])]
        elif (sizes := spheres(a, c.id)) is None:
            summands = [(i, rank, tors) for i, (rank, tors) in
                        OrderComplex(a, c.id).homology(ring).items()]
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


def el_shellable(a, labelings):
    """(chains, verdicts) of a graded algebra, in one pass over its covers
    z < z.x by length: chains[q] counts the maximal chains of [e_{t(q)}, q]
    up to 2; verdicts[k][q] says if that interval is EL-shellable
    (Bjorner-Wachs) under labelings[k], a rank map keyed by arrow label, read
    at the least label of the class of x.  [e, q] passes itself when one
    maximal chain rises and its least label sequence does.  Division by u
    maps [u, w] onto [e, u\\w] and keeps the labels, so q also needs the
    verdicts of its lower covers and of a\\q for each atom a < q.  A failure
    means 'unknown', not a disproof."""
    n = len(a.classes)
    below = [{} for _ in range(n)]  # {lower cover z: the arrow class z\\q}
    for (z, x), q in a.step.items():
        below[q][z] = a.arrow_class[x]
    order = [q for q in sorted(range(n), key=a.length) if below[q]]
    rows = {v: [a.quotients(a.arrow_class[x.label]) for x in a.quiver.out[v]]
            for v in a.quiver.vertices}  # the rows of the atoms from v
    chains = [1] * n
    for q in order:
        chains[q] = min(2, sum(chains[z] for z in below[q]))
    verdicts = []
    for ranks in labelings:
        rank_of = {c: ranks[label] for label, c in
                   sorted(a.arrow_class.items(), reverse=True)}
        # rising chains by last label, up to 2; e has (), below every label
        rising, least, ok = [{float('-inf'): 1}] * n, [()] * n, [True] * n
        for q in order:
            up = rising[q] = {}
            for z, x in below[q].items():
                lam = rank_of[x]
                up[lam] = min(2, up.get(lam, 0) + sum(
                    k for last, k in rising[z].items() if last <= lam))
            s = least[q] = min(least[z] + (rank_of[x],)
                               for z, x in below[q].items())
            ok[q] = (sum(up.values()) == 1 and
                     all(x <= y for x, y in zip(s, s[1:])) and
                     all(ok[z] for z in below[q]) and
                     all(ok[row[q]] for row in rows[a.tail(q)] if q in row))
        verdicts.append(ok)
    return chains, verdicts


# ---------------------------------------------------------------------------
# Koszulity


class KoszulVerdict:
    def __init__(self, status, method=None, payload=None):
        self.status = status  # koszul-certified | not-koszul | unknown
        self.method = method
        self.payload = payload or {}

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
    EL-shellable under some candidate labeling (`el_shellable`, all in one
    pass over the covers), (iii) the lexicographic Morse complex is
    minimal, in which case linearity decides outright.
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

    chains, verdicts = el_shellable(a, _default_labelings(a))
    # structural shellability, on the top interval only: one maximal chain
    # (the empty interval included), or an antichain, that is length 2
    if all(c == 1 or a.length(q) == 2 or any(ok[q] for ok in verdicts)
           for q, c in enumerate(chains)):
        return KoszulVerdict('koszul-certified', 'shellable-intervals', {
            'intervals': len(chains) - len(a.trivial_class)})

    # only this last certificate needs the Morse complex (see hpa.morse)
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
