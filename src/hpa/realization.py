"""Geometric realization of a path algebra as a regular semi-simplicial
complex.

Cells in dimension k are canonical chains (e_v < p_1 < ... < p_k) of path
classes, strictly increasing under left divisibility, with a trivial first
entry.  Face i deletes the i-th entry; deleting the trivial head rebases the
chain by dividing through p_1.  Regularity makes every incidence number
(-1)^i, so boundary matrices have entries in {-1, 0, 1}.

A cell is an int, kept in a simplex tree (Boissonnat and Maria 2014): cell
c is the chain of parent[c], its top face, extended by the class last[c].
`x.chain(c)` is the tuple of class ids of a cell.  The functions below
build_realization take cells as chains and build no CellComplex.

`gradient_terms` is the one gradient-flow walk: on chains (tuples of class
ids), with the coefficients of the cellular resolution, under a partner
rule, such as the Babson-Hersh matching read off the shellings
(`partner`, whose unmatched cells `shelled_critical` lists).  A stratum is
the set of cells that end at one class (`stratum`).
`realization_homology` builds no CellComplex: it counts the cells, lists
the critical ones from the shellings, walks from them and hands that Morse
complex to `linalg.homology`, the one path from a chain complex to its
homology, which it loads only then: nothing else here eliminates.
"""

from itertools import chain, combinations, compress, groupby, repeat

from . import RING_Z
from .algebra import require_cancellative


class MatchingError(ValueError):
    """A matching that cannot be cancelled: not internal, not acyclic, or
    pairing a cell with a face that is not a middle one."""


class CellComplex:
    """The chains of a cancellative algebra, capped at dimension max_dim if
    given (a truncation: homology above the cap is not defined from it).
    Cells are numbered dimension by dimension, taking parents in id order
    and each one's children by increasing class id, so the range cells[k]
    of the k-cells runs in sorted chain order.  Per cell: `parent` (-1 for
    a vertex cell) and `last`, built a level at a time from the quotient
    rows; `vertex` maps each vertex to its cell.  The child table and the
    face table are filled on first use: `children[c]` is {class: child} or
    None, cell c has faces face[at[c]:at[c + 1]], and p_1 = first[c]."""

    def __init__(self, hpa, max_dim=None):
        a = self.hpa = hpa
        last = self.last = sorted(a.trivial_class.values())
        self.vertex = {a.tail(e): c for c, e in enumerate(last)}
        parent = self.parent = [-1] * len(last)
        ups = {}  # the classes above each class, by id
        self.cells = [range(len(last))]
        self.truncated = False
        while self.cells[-1]:
            level = self.cells[-1]
            for p in set(last[level.start:]) - ups.keys():
                ups[p] = sorted(q for q in a.quotients(p) if q != p)
            rows = list(map(ups.__getitem__, last[level.start:]))
            if max_dim is not None and len(self.cells) > max_dim:
                self.truncated = any(rows)
                break
            parent += chain.from_iterable(map(repeat, level, map(len, rows)))
            last += chain.from_iterable(rows)
            self.cells.append(range(level.stop, len(last)))
        if len(self.cells) > 1 and not self.cells[-1]:
            self.cells.pop()
        self.names = [_class_name(c) for c in a.classes]

    def __getattr__(self, name):
        # called only while the child table or the face table is missing
        if name == 'children':
            self._fill_children()
        elif name in ('face', 'at', 'first'):
            self._fill_faces()
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def _fill_children(self):
        """{class: child} of each cell, None for a leaf: the children of a
        cell are the run of cells that name it as parent."""
        last, stop = self.last, len(self.cells[0])
        children = self.children = [None] * len(last)
        for up, run in groupby(self.parent[stop:]):
            start, stop = stop, stop + len(list(run))
            children[up] = dict(zip(last[start:stop], range(start, stop)))

    def _fill_faces(self):
        """All faces, in one pass in id order.  Face k of a k-cell c is
        parent[c]; face i, 0 < i < k, is the child by last[c] of face i of
        the parent; face 0 is the child by p_1\\p_k of face 0 of the
        parent, for a 1-cell the vertex cell at the head of last[c]."""
        a, children = self.hpa, self.children
        face = self.face = []
        at = self.at = [0] * (len(self.cells[0]) + 1)
        first = self.first = list(self.last)
        for c in self.cells[1] if len(self.cells) > 1 else ():
            face += (self.vertex[a.head(first[c])], self.parent[c])
            at.append(len(face))
        for k in range(2, len(self.cells)):
            # children parent by parent, sharing the parent's faces
            for up in self.cells[k - 1]:
                if not children[up]:
                    continue
                below = children[face[at[up]]]
                rest = [children[f] for f in face[at[up] + 1:at[up + 1]]]
                quot = a.quotients(first[up])
                for q, c in children[up].items():
                    face.append(below[quot[q]])
                    face += [r[q] for r in rest]
                    face.append(up)
                    at.append(len(face))
                    first[c] = first[up]

    @property
    def max_dim(self):
        return len(self.cells) - 1

    def counts(self):
        return [len(cs) for cs in self.cells]

    def chain(self, cell):
        """The chain (e_v, p_1, ..., p_k) of class ids of a cell."""
        last, parent, out = self.last, self.parent, []
        while cell >= 0:
            out.append(last[cell])
            cell = parent[cell]
        return tuple(reversed(out))

    def child(self, cell, *classes):
        """The cell of chain(cell) extended by `classes`, or None."""
        for q in classes:
            cell = (self.children[cell] or {}).get(q)
            if cell is None:
                break
        return cell

    def cell_names(self):
        """The name of every cell, by dimension, each from its parent's:
        format_chain of its chain."""
        out = [['[' + self.names[self.last[c]] + ']' for c in self.cells[0]]]
        for k, cs in enumerate(self.cells[1:]):
            up, base = out[-1], self.cells[k].start
            out.append([up[self.parent[c] - base][:-1] + ' < ' +
                        self.names[self.last[c]] + ']' for c in cs])
        return out


def _class_name(cl):
    return ' '.join(cl.rep.labels) if cl.rep.labels else f"e_{cl.tail}"


def format_chain(a, chain):
    """A chain of class ids as [e_v < p_1 < ... < p_k], each class by the
    labels of its representative."""
    return '[' + ' < '.join(_class_name(a.classes[c]) for c in chain) + ']'


def build_realization(a, max_dim=None):
    """The CellComplex of all canonical chains of the path poset of `a`,
    capped at max_dim.  A non-cancellative algebra is refused with
    NotCancellativeError: there face 0 of a chain need not be a chain."""
    require_cancellative(a)
    return CellComplex(a, max_dim)


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


def lex_shelling(a, p):
    """{F_j: R_j}: the maximal chains F_j of the open interval (e_{t(p)}, p)
    in lexicographic order of their canonical words (the order of class
    ids), each with its restriction set R_j = {v : F_j - {v} lies in an
    earlier facet}; None when that order is not a shelling, that is when
    the faces of some F_j that no earlier facet holds are not exactly [R_j,
    F_j] (R_j = empty with the empty face already seen is a disjoint
    union).  A face of F_j that lacks some v in R_j lies below F_j - {v},
    which is seen, so that fails exactly when R_j itself is seen.  The
    empty interval gives {(): frozenset()}.  A face is a bit mask, one bit
    per element in order of first appearance; `seen` holds every face of
    the earlier facets.  The result is kept on the algebra, per class, the
    one stored form of a shelling."""
    if p in a._shellings:
        return a._shellings[p]
    chains = sorted(maximal_chains(a, a.trivial_class[a.tail(p)], p))
    bit = {}
    seen = set()
    out = {}
    for ch in chains:
        bits = [bit.setdefault(v, 1 << len(bit)) for v in ch]
        fj = sum(bits)
        rbits = [fj ^ b in seen for b in bits]
        rj = sum(compress(bits, rbits))
        if rj in seen:
            out = None
            break
        faces = [0]
        for b in bits:
            faces += [s | b for s in faces]
        seen.update(faces)
        out[ch] = frozenset(compress(ch, rbits))
    a._shellings[p] = out
    return out


def euler_characteristic(counts):
    """The alternating sum of cells (or critical cells) per dimension."""
    return sum((-1) ** k * n for k, n in enumerate(counts))


def cell_counts(a):
    """The number of cells per dimension of build_realization(a), without
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
    ups = {}
    for z in inner | {e}:
        row = a.quotients(z)
        ups[z] = sorted(q for q in inner if q in row and q != z)
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
    for ch, rj in shelling.items():
        t = min(set(ch) - rj, default=None)
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
        for s in combinations(free, need):
            g = rj.union(s)
            out.append((e, *(v for v in ch if v in g), p))
    return out


def by_dimension(a, cells, top, counts):
    """The vertex cells and the chains `cells` of dimension 1 to top, by
    dimension, each sorted (the id order of build_realization); refused
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
    """The Babson-Hersh partner of the cell c = (e, *G, p), a chain, read
    off lex_shelling(a, p): None when c is unmatched, () when it is matched
    with a face, else (its top, the place of c among the faces of the top),
    which may lie above a cap that c lies at.  The facet F_j of G is the
    first maximal chain through G in lexicographic order: from e, the least
    cover that lies below the next element of G, or below p, step by step.
    So R_j <= G <= F_j, and the partner is G with t = min(F_j - R_j)
    toggled, or none when R_j = F_j.  The arrow cell [e < p] of an arrow's
    class and every cell of a class that its order does not shell stay
    unmatched."""
    p = c[-1]
    shelling = len(c) > 1 and lex_shelling(a, p)
    if not shelling:
        return None
    z, ch = c[0], []
    for q in c[1:]:
        while z != q:
            for z in a.covers(z):  # the least cover of z below q
                if q in a.quotients(z):
                    break
            ch.append(z)
    ch = tuple(ch[:-1])
    rj, g = shelling[ch], c[1:-1]
    t = min(set(ch) - rj, default=None)
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
    max_dim, with no CellComplex: the cell counts below the cap, whether
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


def accumulate(acc, key, v):
    """acc[key] += v on a sparse dict, dropping the entry when it cancels."""
    nv = acc.get(key, 0) + v
    if nv:
        acc[key] = nv
    else:
        acc.pop(key, None)


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
