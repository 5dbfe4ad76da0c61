"""Tor/Betti invariants through interval homology, shellability
certificates, and Koszulity verdicts.

The central fact: Tor_i(S_v, S_w) is the direct sum, over nontrivial path
classes p from v to w, of the reduced homology H~_{i-2} of the order complex
of the open interval (e_{t(p)}, p), with the convention H~_{-1}(empty) = R.
This gives an oracle for the resolution-side computation that shares no code
with it.
"""

import csv
import io
import json

from .algebra import require_cancellative
from .realization import RING_Z, chain_complex, homology
from .resolution import cellular_resolution, simple_tensor_complex
from .morse import (_maximal_chains, babson_hersh_matching, morse_complex,
                    check_minimal, check_linear)


class OrderComplex:
    """Simplicial complex of chains of a finite poset (given by element list
    and a leq predicate).  Simplices are tuples ordered by the poset."""

    def __init__(self, elements, leq):
        self.elements = list(elements)
        above = {e: [f for f in self.elements if f != e and leq(e, f)]
                 for e in self.elements}
        sims = []
        stack = [(e,) for e in sorted(self.elements, reverse=True)]
        while stack:
            chain = stack.pop()
            k = len(chain) - 1
            while len(sims) <= k:
                sims.append([])
            sims[k].append(chain)
            for f in above[chain[-1]]:
                stack.append(chain + (f,))
        self.simplices = [sorted(s) for s in sims]

    def counts(self):
        return [len(s) for s in self.simplices]


def reduced_homology(oc, ring=RING_Z):
    """{k: (rank, torsion)} for k >= -1.  Degree j of the chain complex holds
    the (j-1)-simplices, degree 0 the empty simplex alone, so a vertex's
    boundary is the augmentation and an empty complex has H~_{-1} = R."""
    def boundary(s):
        return [((-1) ** i, s[:i] + s[i + 1:]) for i in range(len(s))]
    ch = chain_complex([[()]] + oc.simplices, boundary, ring)
    return {j - 1: (rank, tors) for j, (rank, tors) in homology(ch).items()
            if rank or tors}


def interval_order_complex(a, p):
    """Order complex of the open interval (e_{t(p)}, p): vertices are the
    proper nontrivial subpath classes of p."""
    if a.is_trivial(p):
        raise ValueError("interval of a trivial class")
    return OrderComplex(a.open_interval(p), a.leq)


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


def tor_via_intervals(a, v, w, ring=RING_Z):
    """Tor_i(S_v, S_w) assembled from interval homology; sparse dict
    {degree: (rank, elementary divisors)}."""
    acc = {}
    if v == w:
        acc[0] = [1, []]
    for p in a.classes_by_pair.get((v, w), ()):
        if a.is_trivial(p):
            continue
        oc = interval_order_complex(a, p)
        for k, (rank, tors) in reduced_homology(oc, ring).items():
            i = k + 2
            cur = acc.setdefault(i, [0, []])
            cur[0] += rank
            cur[1].extend(tors)
    return {i: (rank, _elementary_divisors(tors))
            for i, (rank, tors) in sorted(acc.items()) if rank or tors}


def tor_via_resolution(a, c, v, w, ring=RING_Z):
    """Homology of S_v (x) c (x) S_w; same sparse shape as
    tor_via_intervals.  c is a cellular resolution or a Morse complex."""
    h = homology(simple_tensor_complex(c, v, w, ring))
    return {i: (rank, _elementary_divisors(tors))
            for i, (rank, tors) in sorted(h.items()) if rank or tors}


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
    """Predicted generator counts of the minimal resolution, from interval
    homology over Z.  Torsion anywhere is flagged: a minimal projective
    bimodule resolution cannot exist over Z then.  Refuses a non-cancellative
    algebra."""
    require_cancellative(a)
    table = {}
    warnings = []
    for v in a.quiver.vertices:
        for w in a.quiver.vertices:
            for i, (rank, tors) in tor_via_intervals(a, v, w).items():
                if rank:
                    table[i, v, w] = rank
                if tors:
                    warnings.append((i, v, w, tors))
    return BettiTable(table, warnings)


# ---------------------------------------------------------------------------
# Shellability certificates


def _rank_map(a, labeling):
    """Normalize a labeling (list of labels, list of label groups, or dict)
    to {arrow label: rank}."""
    if isinstance(labeling, dict):
        return dict(labeling)
    ranks = {}
    for i, item in enumerate(labeling):
        if isinstance(item, str):
            ranks[item] = i
        else:
            for label in item:
                ranks[label] = i
    return ranks


def el_shellability_certificate(a, p, labeling):
    """EL-shellability of the closed interval [e_{t(p)}, p].

    Covers are labeled by the rank of their dividing arrow.  Certified when
    every closed subinterval has exactly one weakly increasing maximal chain
    and it is lexicographically least.  A failed check returns None
    ('unknown', not a disproof), except that an antichain interval is
    certified outright as a finite set of points.
    """
    e = a.trivial_class[a.tail(p)]
    ranks = _rank_map(a, labeling)
    elems = [e] + sorted(a.open_interval(p)) + [p]
    label_of = {}  # arrow class -> its least arrow label
    for label in sorted(a.arrow_class):
        label_of.setdefault(a.arrow_class[label], label)

    def chain_ranks(chain):
        out = []
        for z1, z2 in zip(chain, chain[1:]):
            label = label_of[a.divide(z1, z2)]
            if label not in ranks:
                raise ValueError(f"arrow {label} has no rank in the labeling")
            out.append(ranks[label])
        return tuple(out)

    checked = 0
    witness = None
    for u in elems:
        for w in elems:
            if u == w or not a.leq(u, w):
                continue
            chains = [(u,) + ch + (w,) for ch in _maximal_chains(a, u, w)]
            labeled = [(chain_ranks(ch), ch) for ch in chains]
            increasing = [lc for lc in labeled
                          if all(x <= y for x, y in zip(lc[0], lc[0][1:]))]
            checked += 1
            if len(increasing) != 1 or min(labeled)[1] != increasing[0][1]:
                witness = (u, w, [lc[0] for lc in labeled])
                break
        if witness:
            break

    if witness is None:
        return {'method': 'el-labeling', 'intervals_checked': checked,
                'ranks': ranks}
    chains = _maximal_chains(a, e, p)
    if all(len(ch) == 1 for ch in chains):
        return {'method': 'point-set', 'points': len(chains)}
    return None


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
    """Candidate arrow orders: declaration order, and arrows grouped by
    their base name (label up to a trailing disambiguator)."""
    labels = [ar.label for ar in a.quiver.arrows]
    yield labels
    groups = {}
    for label in labels:
        base = label.split('@')[0].rstrip("'")
        groups.setdefault(base, []).append(label)
    if len(groups) < len(labels):
        yield [groups[b] for b in sorted(groups)]


def koszul_check(a, labelings=None):
    """Sufficient-condition Koszulity verdict.

    Tried in order: (i) a directable toric presentation (when the algebra
    was built from weight data), (ii) every interval EL-shellable or a point
    set under some candidate labeling, (iii) the lexicographic Morse complex
    is minimal, in which case linearity decides outright.
    """
    require_cancellative(a)
    if not a.graded:
        raise ValueError("koszul_check requires a length-graded algebra")

    if getattr(a, 'toric_monomials', None) is not None:
        from .toric import check_directable
        try:
            res = check_directable(a)
        except ValueError:
            res = None
        if res:
            return KoszulVerdict('koszul-certified', 'directable',
                                 {'variable_order': res.order,
                                  'exhaustive': res.exhaustive})

    candidates = list(labelings) if labelings is not None \
        else list(_default_labelings(a))
    all_certified = True
    cert_count = 0
    for p in range(len(a.classes)):
        if a.is_trivial(p):
            continue
        # structural shellability, independent of any labeling: a single
        # maximal chain (the empty interval included) or an antichain
        chains = _maximal_chains(a, a.trivial_class[a.tail(p)], p)
        if len(chains) == 1 or all(len(ch) == 1 for ch in chains):
            cert_count += 1
            continue
        got = None
        for cand in candidates:
            try:
                got = el_shellability_certificate(a, p, cand)
            except ValueError:
                got = None
            if got is not None:
                break
        if got is None:
            all_certified = False
            break
        cert_count += 1
    if all_certified:
        return KoszulVerdict('koszul-certified', 'shellable-intervals',
                             {'intervals': cert_count})

    c = cellular_resolution(a)
    m = babson_hersh_matching(a, complex_=c.complex)
    mc = morse_complex(c, m)
    if check_minimal(mc).ok:
        lin = check_linear(mc)
        if lin.ok:
            return KoszulVerdict('koszul-certified', 'minimal-linear',
                                 {'criticals': mc.counts()})
        cell, tgt, ll, lr = lin.witnesses[0]
        return KoszulVerdict(
            'not-koszul', 'minimal-nonlinear',
            {'cell': mc.matching.complex.format_cell(cell),
             'target': mc.matching.complex.format_cell(tgt),
             'coefficient_lengths': [ll, lr]})
    return KoszulVerdict('unknown', None,
                         {'reason': 'no minimal Morse complex found'})
