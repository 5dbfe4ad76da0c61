"""Geometric realization of a path algebra as a regular semi-simplicial
complex.

Cells in dimension k are canonical chains (e_v < p_1 < ... < p_k) of path
classes, strictly increasing under left divisibility, with a trivial first
entry.  Face i deletes the i-th entry; deleting the trivial head rebases the
chain by dividing through p_1.  Regularity makes every incidence number
(-1)^i, so boundary matrices have entries in {-1, 0, 1}.

Everything here works on chains (tuples of class ids) and builds no
numbered cells: those live in `resolution.BimoduleComplex`, which only `hpa
resolve` builds.  `cell_names` names every cell (`hpa realize`) from the
quotient rows, a level at a time, and `cell_counts` counts them.

`lex_shelling` checks the lexicographic shelling of an interval facet by
facet along least covers (`_Least`, one table per algebra), keeping only
`spheres`, and the maximal chains of an interval that does not shell.
`gradient_terms` is the one gradient-flow walk, with the coefficients of
the cellular resolution (`_terms`), under a partner rule, such as the
Babson-Hersh matching (`partner`, whose unmatched cells `shelled_critical`
lists).  A stratum is the set of cells that end at one class (`stratum`).
`realization_homology` counts the cells, lists the critical ones from the
shellings, walks from them and hands that Morse complex to
`linalg.homology`, the one path from a chain complex to its homology, which
it loads only then: nothing else here eliminates.
"""

from itertools import chain, combinations

from . import RING_Z
from .algebra import accumulate, require_cancellative


class MatchingError(ValueError):
    """A matching that cannot be cancelled: not internal, not acyclic, or
    pairing a cell with a face that is not a middle one."""


def class_name(cl):
    """The labels of the representative of a class, e_v for a trivial one."""
    return ' '.join(cl.rep.labels) if cl.rep.labels else f"e_{cl.tail}"


def format_chain(a, chain):
    """A chain of class ids as [e_v < p_1 < ... < p_k], each class by the
    labels of its representative."""
    return '[' + ' < '.join(class_name(a.classes[c]) for c in chain) + ']'


def maximal_chains(a, u, w):
    """Maximal chains of the open interval (u, w) of the division order, for
    u < w: the walks from u to w along upper covers, without their ends.
    The chain () means that w covers u."""
    chains = []
    stack = [(u, ())]
    below = {}  # whether c < w, for each cover c met
    while stack:
        z, chain = stack.pop()
        for c in a.covers(z):
            if c == w:
                chains.append(chain)
                continue
            inside = below.get(c)
            if inside is None:
                inside = below[c] = w in a.quotients(c)
            if inside:
                stack.append((c, chain + (c,)))
    return chains


class _Least(dict):
    """least[z, q]: the least cover of z that lies below q, q itself if q
    covers z, found on first use: the one primitive of the shelling."""

    def __init__(self, a):
        self.a = a

    def __missing__(self, key):
        z, q = key
        for c in self.a.covers(z):
            if q in self.a.quotients(c):
                self[key] = c
                return c

    def facet(self, c):
        """The first facet F_j of the interval (c[0], c[-1]) that holds
        c[1:-1]: from c[0], the least cover below the next element of c."""
        z, ch = c[0], []
        for q in c[1:]:
            while z != q:
                z = self[z, q]
                ch.append(z)
        return tuple(ch[:-1])

    def restriction(self, c):
        """R_j of the facet c = (e, *F_j, p) in chain order, or None when
        F_j is not the first facet through R_j, in one pass down F_j: f_i is
        in R_j when the least cover of f_{i-1} below f_{i+1} is not f_i,
        and each other f_i must be the least cover of f_{i-1} below the next
        element of R_j above it, or p (f_0 = e, f_{k+1} = p)."""
        rj, t = [], c[-1]
        for i in range(len(c) - 2, 0, -1):
            z, v, q = c[i - 1], c[i], c[i + 1]
            if self[z, q] != v:
                rj.append(v)
                t = v
            elif t != q and self[z, t] != v:
                return None
        return tuple(reversed(rj))


def lex_shelling(a, p):
    """[(F_j, R_j)]: the maximal chains F_j of the open interval (e_{t(p)},
    p), as maximal_chains lists them, with their restriction sets R_j = {v :
    F_j - {v} lies in an earlier facet} for the lexicographic order (of
    class ids); None when that order is not a shelling: when the faces of
    some F_j that no earlier facet holds are not [R_j, F_j], that is (a face
    without v in R_j lies in F_j - {v}) when R_j lies in an earlier facet
    (`_Least.restriction`), and its maximal chains are then kept for
    `unshelled_chains`.  The empty interval gives [((), ())]."""
    if a._least is None:  # one table, shared by every shelling and partner
        a._least = _Least(a)
    e, least = a.trivial_class[a.tail(p)], a._least
    chains = maximal_chains(a, e, p)
    out = [(ch, least.restriction((e, *ch, p))) for ch in chains]
    if any(rj is None for _, rj in out):
        a._spheres[p], a._unshelled[p] = None, chains
        return None
    a._spheres[p] = tuple(len(ch) for ch, rj in out if rj == ch)
    return out


def spheres(a, p):
    """(|F_j| for each facet with R_j = F_j) of lex_shelling(a, p), one
    sphere each of the wedge that the interval is, or None when its order
    does not shell: kept per class, shelled only on first use."""
    if p not in a._spheres:
        lex_shelling(a, p)
    return a._spheres[p]


def unshelled_chains(a, p):
    """The maximal chains of the interval below p, as lex_shelling walked
    them, when spheres(a, p) is None."""
    return a._unshelled[p]


def euler_characteristic(counts):
    """The alternating sum of cells (or critical cells) per dimension."""
    return sum((-1) ** k * n for k, n in enumerate(counts))


def cell_counts(a):
    """The number of cells per dimension of the realization of `a`, without
    its cells: the number of k-cells that end at each class is pushed along
    the quotient rows, a k-cell ending at p giving a (k+1)-cell ending at
    each q > p, one level per dimension.  Capped at c, the realization has
    the first c + 1 of these counts, and is truncated when there are more."""
    require_cancellative(a)
    level = dict.fromkeys(a.trivial_class.values(), 1)
    counts = [len(level)]
    while level:
        up = {}
        for p, n in level.items():
            for q in a.quotients(p):
                if q != p:
                    up[q] = up.get(q, 0) + n
        level = up
        counts.append(sum(up.values()))
    if len(counts) > 1 and not counts[-1]:
        counts.pop()
    return counts


def cell_names(a, max_dim=None, name=class_name):
    """(names, truncated): format_chain of every cell of the realization
    of `a` capped at max_dim, each class named by `name`, by dimension in
    sorted chain order (parents in order, each one's children by increasing
    class id: the id order of `resolution.BimoduleComplex`), and whether
    the cap truncates, without building its cells."""
    require_cancellative(a)
    ends = [name(c) + ']' for c in a.classes]
    lasts = sorted(a.trivial_class.values())
    out, ups = [['[' + ends[e] for e in lasts]], {}
    while lasts:
        for p in set(lasts) - ups.keys():
            ups[p] = sorted(q for q in a.quotients(p) if q != p)
        if max_dim is not None and len(out) > max_dim:
            return out, any(ups[p] for p in lasts)
        level, up = [], []
        for name, p in zip(out[-1], lasts):
            if row := ups[p]:
                level += map((name[:-1] + ' < ').__add__,
                             map(ends.__getitem__, row))
                up += row
        if level:
            out.append(level)
        lasts = up
    return out, False


def stratum(a, p, top):
    """Every cell (e, *G, p) of the realization capped at dimension `top`,
    G a chain of the open interval (e, p), p nontrivial, in (dimension,
    chain) order: the interval is walked up from e along the covers."""
    e = a.trivial_class[a.tail(p)]
    inner, todo = set(), [e]
    while todo:
        for c in a.covers(todo.pop()):
            if c != p and c not in inner and p in a.quotients(c):
                inner.add(c)
                todo.append(c)
    ups = {z: sorted(q for q in inner if q != z and q in a.quotients(z))
           for z in inner | {e}}
    out, level = [], [(e,)]
    for _ in range(top):
        out += [g + (p,) for g in level]
        level = [g + (q,) for g in level for q in ups[g[-1]]]
        if not level:
            break
    return out


def shelled_critical(a, p, top):
    """The cells ending at p, capped at dimension top >= 1, that `partner`
    leaves unmatched (a bottom at the cap whose top lies above it counts),
    read off lex_shelling(a, p); None when that is not a shelling."""
    shelling = lex_shelling(a, p)
    if shelling is None:
        return None
    e, out = a.trivial_class[a.tail(p)], []
    arrow = 1 in a.classes[p].lengths
    for ch, rj in shelling:
        t = min((v for v in ch if v not in rj), default=None)
        if t is None:  # R_j = F_j
            if len(ch) < top:
                out.append((e, *ch, p))
            continue
        if arrow and not rj:  # [e < p] and [e < t < p]
            out += [(e, p), (e, t, p)][:top]
        # the bottoms at the cap: R_j and `need` free elements, no t
        need = top - 1 - len(rj)
        if need < 0 or (arrow and not rj and not need):
            continue
        free = [v for v in ch if v != t and v not in rj]
        out += [(e, *(v for v in ch if v in rj or v in s), p)
                for s in combinations(free, need)]
    return out


def by_dimension(a, cells, top, counts):
    """The vertex cells and the chains `cells` of dimension 1 to top, by
    dimension, each sorted (the order of `cell_names`); refused
    (ValueError) unless they have the Euler characteristic of `counts`."""
    out = [[(e,) for e in sorted(a.trivial_class.values())]]
    out += [[] for _ in range(top)]
    for c in cells:
        out[len(c) - 1].append(c)
    for cs in out:
        cs.sort()
    found = [len(cs) for cs in out]
    if euler_characteristic(found) != euler_characteristic(counts):
        raise ValueError(f"critical cells {found} do not have the Euler "
                         f"characteristic of the cells {counts}")
    return out


def partner(a, c):
    """The Babson-Hersh partner of the cell c = (e, *G, p), a chain: None
    when c is unmatched, () when it is matched with a face, else (its top,
    the place of c among the faces of the top), which may lie above a cap
    that c lies at.  With F_j the facet of G (`_Least.facet`), R_j <= G <=
    F_j, and the partner toggles t = min(F_j - R_j), none when R_j = F_j.
    The arrow cell [e < p] of an arrow's class and every cell of a class
    whose order does not shell (`spheres`) stay unmatched."""
    p = c[-1]
    if len(c) < 2 or spheres(a, p) is None:
        return None
    least = a._least  # made when lex_shelling shelled p
    ch, g = least.facet(c), c[1:-1]
    rj = least.restriction((c[0], *ch, p))
    t = min((v for v in ch if v not in rj), default=None)
    if t is None or (not rj and g in ((), (t,)) and
                     1 in a.classes[p].lengths):
        return None
    if t in g:
        return ()
    inner = tuple(v for v in ch if v == t or v in g)
    return (c[0], *inner, p), inner.index(t) + 1


def _terms(a, c):
    """The resolution's differential of the chain c = (e, p_1, ..., p_k),
    k >= 1, as terms (sign, l, face, r), face i with sign (-1)^i: face 0
    rebased through p_1 and l = p_1, the top face with r = p_{k-1}\\p_k,
    every other coefficient trivial."""
    p, k = c[-1], len(c) - 1
    el, er = a.trivial_class[a.tail(p)], a.trivial_class[a.head(p)]
    row = a.quotients(c[1])
    return [(1, c[1], (a.trivial_class[a.head(c[1])],
                       *(row[q] for q in c[2:])), er)] + [
        (-1 if i % 2 else 1, el, c[:i] + c[i + 1:], er)
        for i in range(1, k)] + [
        (-1 if k % 2 else 1, el, c[:-1], a.quotients(c[-2])[p])]


def faces(a, c):
    """The faces of the chain c, face i at place i as `_terms` gives them;
    none for a vertex."""
    return [f for _, _, f, _ in _terms(a, c)] if len(c) > 1 else []


def realization_homology(a, ring=RING_Z, max_dim=None):
    """(homology, counts, truncated) of the realization of `a` capped at
    max_dim, on chains: the cell counts below the cap, whether
    the cap truncates, and the homology of the degrees below a cap that
    truncates (which the cap determines), (0, []) where it has no group.
    It is that of the Morse complex of the Babson-Hersh matching of the
    whole realization (`partner`), coefficients forgotten, walked up to the
    cap.  Backing it: lex_shelling checks each shelling, the Euler check of
    the critical cells, the walk's refusal of a cycle, and d^2 = 0 in
    `homology`."""
    from .linalg import homology
    whole = cell_counts(a)
    counts = whole[:len(whole) if max_dim is None else max_dim + 1]
    truncated = len(counts) < len(whole)
    if truncated and not max_dim:  # no degree to report, nothing to shell
        return {}, counts, truncated
    top = len(whole) - 1  # on a class that does not shell, every cell
    critical = by_dimension(a, chain.from_iterable(
        stratum(a, p, top) if (cs := shelled_critical(a, p, top)) is None
        else cs for p in range(len(a.classes))
        if top and not a.is_trivial(p)), top, whole)[:len(counts)]
    while len(critical) > 1 and not critical[-1]:
        critical.pop()
    terms = gradient_terms(a, critical, lambda c: partner(a, c))
    h = homology(critical, lambda tau: [
        (cf, tgt) for cf, _, tgt, _ in terms[tau]], ring)
    return ({k: h.get(k, (0, [])) for k in range(len(counts) - truncated)},
            counts, truncated)


def gradient_terms(a, critical, partner):
    """{tau: [(coef, l, target, r)] sorted by (l, target, r)}, the Morse
    differential of each critical chain tau of dimension >= 1 (`critical`
    lists them by dimension) under the matching partner(c) gives: None for
    a critical cell, () for a top, else (its top, the place of c among the
    top's faces).  A critical cell flows to (unit, itself, unit), a top to
    nothing, and a bottom, term i of sign eps of its top, to -eps times
    the top's other terms composed with their flows (Skoldberg 2006, Trans.
    AMS 358), found by _flow and memoized per dimension."""
    out = {}
    for cells in critical[1:]:
        flow = {}
        for tau in cells:
            ts = _terms(a, tau)
            for _, _, f, _ in ts:
                _flow(a, partner, flow, f)
            out[tau] = [(cf, l, tgt, r) for (l, tgt, r), cf in
                        sorted(_compose(a, ts, flow).items())]
    return out


def _compose(a, ts, flow, i=None):
    """{(l, target, r): coefficient} of the terms ts but term i composed
    with the flows of their faces, times -eps, eps the sign of term i."""
    scale, acc = 1 if i is None else -ts[i][0], {}
    for j, (sign, l, f, r) in enumerate(ts):
        if j != i:
            for (l2, tgt, r2), cf in flow[f].items():
                accumulate(acc, (a.mult(l, l2), tgt, a.mult(r2, r)),
                           scale * sign * cf)
    return acc


def _flow(a, partner, flow, start):
    """Put the flow of the cell `start` into `flow`, by an iterative
    post-order walk.  MatchingError refuses a bottom that is not the face
    its partner names, or whose term is not trivial with sign +-1 (face 0
    or the top face).  `open_` holds the pending bottoms in path order; a
    face of a top that is one of them closes a cycle (ValueError)."""
    stack = [start]
    open_ = {}  # a bottom: (its top, its place in the top, the top's terms)
    while stack:
        s = stack[-1]
        if s in flow:
            stack.pop()
            continue
        if s not in open_:
            match = partner(s)
            if not match:
                p = s[-1]
                flow[s] = {} if match == () else {
                    (a.trivial_class[a.tail(p)], s,
                     a.trivial_class[a.head(p)]): 1}
                stack.pop()
                continue
            t, i = match
            ts = _terms(a, t)
            if not (0 <= i < len(ts) and ts[i][2] == s):
                raise MatchingError(f"{format_chain(a, s)} is not face {i} "
                                    f"of {format_chain(a, t)}")
            eps, l, _, r = ts[i]
            if not (eps in (1, -1) and a.is_trivial(l) and a.is_trivial(r)):
                raise MatchingError("matched pair has a non-invertible "
                                    "incidence coefficient")
            open_[s] = (t, i, ts)
        _, i, ts = open_[s]
        missing = [f for j, (_, _, f, _) in enumerate(ts)
                   if j != i and f not in flow]
        for f in missing:
            if f in open_:
                loop = list(open_)[list(open_).index(f):]
                cells = [c for b in loop for c in (b, open_[b][0])] + [f]
                names = [format_chain(a, c) for c in cells]
                raise ValueError(
                    'gradient path closes a cycle: ' + ' -> '.join(names))
        if missing:
            stack += missing
            continue
        flow[s] = _compose(a, ts, flow, i)
        del open_[s]
        stack.pop()
