"""Geometric realization of a path algebra as a regular semi-simplicial
complex.

Cells in dimension k are canonical chains (e_v < p_1 < ... < p_k) of path
classes, strictly increasing under left divisibility, with a trivial first
entry.  Face i deletes the i-th entry; deleting the trivial head rebases the
chain by dividing through p_1.  Regularity makes every incidence number
(-1)^i, so boundary matrices have entries in {-1, 0, 1}.

A cell is an int, kept in a simplex tree (Boissonnat and Maria 2014): cell
c is the chain of parent[c], its top face, extended by the class last[c].
`x.chain(c)` is the tuple of class ids of a cell, `x.cell(chain)` its id.

`gradient_terms` is the one gradient-flow walk: on chains (tuples of class
ids), with the coefficients of the cellular resolution, under a partner
rule, such as the Babson-Hersh matching read off the shellings
(`_Gradient`).  `realization_homology` builds no CellComplex: it counts the
cells, lists the critical ones from the shellings and walks from them.
`homology(cells, boundary, ring)` is the one path from a chain complex to
its homology: that Morse complex, S_v (x) (Morse complex) (x) S_w and the
complex that an interval's maximal chains generate all reach it as a basis
per degree and a boundary rule.
"""

from bisect import bisect_right
from itertools import combinations, compress

from . import RING_Z
from .algebra import require_cancellative
from .linalg import SparseMat, accumulate, invariant_factors, modp_rank


class MatchingError(ValueError):
    """A matching that cannot be cancelled: not internal, not acyclic, or
    pairing a cell with a face that is not a middle one."""


class CellComplex:
    """The chains of a cancellative algebra, capped at dimension max_dim if
    given (a truncation: homology above the cap is not defined from it).
    Cells are numbered dimension by dimension, taking parents in id order
    and each one's children by increasing class id, so the range cells[k]
    of the k-cells runs in sorted chain order.  Per cell: `parent` (-1 for
    a vertex cell), `last`, and `children`, {class: child} or None; `vertex`
    maps each vertex to its cell.  The face table is filled on first use:
    cell c has faces face[at[c]:at[c + 1]], and p_1 = first[c]."""

    def __init__(self, hpa, max_dim=None):
        a = self.hpa = hpa
        last = self.last = sorted(a.trivial_class.values())
        self.vertex = {a.tail(e): c for c, e in enumerate(last)}
        parent = self.parent = [-1] * len(last)
        children = self.children = [None] * len(last)
        ups = {}  # the classes above each class, by id
        self.cells = [range(len(last))]
        self.truncated = False
        while self.cells[-1]:
            level = self.cells[-1]
            for p in {last[c] for c in level} - ups.keys():
                ups[p] = sorted(q for q in a.quotients(p) if q != p)
            if max_dim is not None and len(self.cells) > max_dim:
                self.truncated = any(ups[last[c]] for c in level)
                break
            for c in level:
                row, n = ups[last[c]], len(last)
                if row:
                    children[c] = dict(zip(row, range(n, n + len(row))))
                    parent += [c] * len(row)
                    last += row
            self.cells.append(range(level.stop, len(last)))
            children += [None] * len(self.cells[-1])
        if len(self.cells) > 1 and not self.cells[-1]:
            self.cells.pop()
        self._starts = [cs.start for cs in self.cells]
        self.names = [_class_name(c) for c in a.classes]

    def __getattr__(self, name):
        # called only while the face table is missing
        if name not in ('face', 'at', 'first'):
            raise AttributeError(name)
        self._fill_faces()
        return getattr(self, name)

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

    def dim(self, cell):
        return bisect_right(self._starts, cell) - 1

    def tail(self, cell):
        return self.hpa.tail(self.last[cell])

    def head(self, cell):
        return self.hpa.head(self.last[cell])

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

    def cell(self, chain):
        """The cell of a tuple of class ids, or None."""
        cell = self.vertex.get(self.hpa.tail(chain[0]))
        if cell is not None and self.last[cell] == chain[0]:
            return self.child(cell, *chain[1:])

    def faces(self, cell):
        """List of the k+1 facets of a k-cell, position i giving the i-th
        face; empty for a vertex cell."""
        return self.face[self.at[cell]:self.at[cell + 1]]

    def format_cell(self, cell):
        return format_chain(self.hpa, self.chain(cell))

    def cell_names(self):
        """format_cell of every cell, by dimension, each from its parent's."""
        out = [['[' + self.names[self.last[c]] + ']' for c in self.cells[0]]]
        for k, cs in enumerate(self.cells[1:]):
            up, base = out[-1], self._starts[k]
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
    """The maximal chains F_j of the open interval (e_{t(p)}, p) in
    lexicographic order of their canonical words (the order of class ids),
    each with its restriction set R_j = {v : F_j - {v} lies in an earlier
    facet}; None when that order is not a shelling, that is when the faces
    of some F_j that no earlier facet holds are not exactly [R_j, F_j] (R_j
    = empty with the empty face already seen is a disjoint union).  A face
    of F_j that lacks some v in R_j lies below F_j - {v}, which is seen, so
    that fails exactly when R_j itself is seen.  The empty interval gives
    [((), frozenset())].  A face is a bit mask, one bit per element in
    order of first appearance; `seen` holds every face of the earlier
    facets.  The result is kept on the algebra, per class."""
    if p in a._shellings:
        return a._shellings[p]
    chains = sorted(maximal_chains(a, a.trivial_class[a.tail(p)], p))
    bit = {}
    seen = set()
    out = []
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
        out.append((ch, frozenset(compress(ch, rbits))))
    a._shellings[p] = out
    return out


def homology(cells, boundary, ring=RING_Z):
    """{k: (rank, torsion list)} of the complex with basis cells[k] in
    degree k, trailing empty degrees dropped; boundary(cell) returns
    (coefficient, face) pairs, each face a cell of the degree below.  Each
    d_k is built once, checked against d_{k-1} (raising on d^2 != 0 at the
    first degree where the product is nonzero) and eliminated once."""
    kind = ring[0]
    if kind not in ('Z', 'Q', 'Fp'):
        raise ValueError(f"unknown ring {ring!r}")
    cells = list(cells)
    while len(cells) > 1 and not cells[-1]:
        cells.pop()
    # rank[k] and torsion[k] of d_k: C_k -> C_{k-1}
    rank = [0] * (len(cells) + 1)
    torsion = [[] for _ in rank]
    d = SparseMat()  # d_0 = 0
    for k in range(1, len(cells)):
        column = {}  # the entries of d_{k-1}, by column
        for (i, j), v in d.entries.items():
            column.setdefault(j, []).append((i, v))
        index = {cell: i for i, cell in enumerate(cells[k - 1])}
        d = SparseMat()
        for j, cell in enumerate(cells[k]):
            for coef, face in boundary(cell):
                accumulate(d.entries, (index[face], j), coef)
        product = {}
        for (i, j), v in d.entries.items():
            for r, w in column.get(i, ()):
                accumulate(product, (r, j), v * w)
        if product:
            raise ValueError(f"d^2 != 0 at degree {k}")
        if kind == 'Fp':
            rank[k] = modp_rank(d, ring[1])
        else:
            facs = invariant_factors(d)
            rank[k] = len(facs)
            if kind == 'Z':
                torsion[k] = [f for f in facs if f > 1]
    return {k: (len(cs) - rank[k] - rank[k + 1], torsion[k + 1])
            for k, cs in enumerate(cells)}


def euler_characteristic(counts):
    """The alternating sum of cells (or critical cells) per dimension."""
    return sum((-1) ** k * n for k, n in enumerate(counts))


def cell_counts(a, max_dim=None):
    """(counts, truncated) of build_realization(a, max_dim), without its
    cells: the number of k-cells that end at each class is pushed along the
    quotient rows, a k-cell ending at p giving a (k+1)-cell ending at each
    q > p, one level per dimension."""
    require_cancellative(a)
    level = dict.fromkeys(a.trivial_class.values(), 1)
    counts = [len(level)]
    truncated = False
    while level:
        if max_dim is not None and len(counts) > max_dim:
            truncated = any(len(a.quotients(p)) > 1 for p in level)
            break
        up = {}
        for p, n in level.items():
            for q in a.quotients(p):
                if q != p:
                    up[q] = up.get(q, 0) + n
        level = up
        counts.append(sum(up.values()))
    if len(counts) > 1 and not counts[-1]:
        counts.pop()
    return counts, truncated


class _Gradient:
    """The Babson-Hersh matching of the realization of `a`, capped at
    dimension `top`, read cell by cell off the lexicographic shellings.
    A cell (e, *G, p) is a face G of the order complex of the interval (e,
    p).  Its facet is the first F_j of lex_shelling(a, p) that contains G
    (by the facets' bit masks), so R_j <= G <= F_j, and its partner is G
    with t = min(F_j - R_j) toggled, or none when R_j = F_j.  The arrow
    cell [e < p] of an arrow's class, a bottom whose top lies above the cap
    and every cell of a class that its order does not shell stay unmatched."""

    def __init__(self, a, top):
        self.a, self.top = a, top
        self._facets = {}

    def facets(self, p):
        """(bit, masks, shelling) for the class p: one bit per element of
        the interval, the mask of each facet of lex_shelling(a, p) and that
        shelling; None when its order does not shell."""
        if p not in self._facets:
            shelling, bit = lex_shelling(self.a, p), {}
            self._facets[p] = shelling and (bit, [
                sum(bit.setdefault(v, 1 << len(bit)) for v in ch)
                for ch, _ in shelling], shelling)
        return self._facets[p]

    def criticals(self, counts):
        """The unmatched cells, as chains, by dimension, each dimension
        sorted (the id order of build_realization); refused (ValueError)
        unless they have the Euler characteristic of the cell counts."""
        a, top = self.a, self.top
        out = [[] for _ in range(top + 1)]
        out[0] = [(e,) for e in sorted(a.trivial_class.values())]
        for p in range(len(a.classes)):
            if a.is_trivial(p) or not top:
                continue
            e = a.trivial_class[a.tail(p)]
            shelling = lex_shelling(a, p)
            if shelling is None:  # every chain of the interval
                for g in {g for ch in maximal_chains(a, e, p)
                          for k in range(min(len(ch), top - 1) + 1)
                          for g in combinations(ch, k)}:
                    out[len(g) + 1].append((e, *g, p))
                continue
            arrow = 1 in a.classes[p].lengths
            for ch, rj in shelling:
                t = min(set(ch) - rj, default=None)
                if t is None:  # R_j = F_j
                    if len(ch) < top:
                        out[len(ch) + 1].append((e, *ch, p))
                    continue
                if arrow and not rj:  # [e < p] and [e < t < p]
                    out[1].append((e, p))
                    if top > 1:
                        out[2].append((e, t, p))
                # the bottoms at the cap: R_j and `need` free elements, no t
                need = top - 1 - len(rj)
                if need < 0 or (arrow and not rj and not need):
                    continue
                free = [v for v in ch if v != t and v not in rj]
                for s in combinations(free, need):
                    g = rj.union(s)
                    out[top].append((e, *(v for v in ch if v in g), p))
        for cells in out:
            cells.sort()
        found = [len(cs) for cs in out]
        if euler_characteristic(found) != euler_characteristic(counts):
            raise ValueError(f"critical cells {found} do not have the Euler "
                             f"characteristic of the cells {counts}")
        return out

    def partner(self, c):
        """None when the cell c (a chain) is unmatched, () when it is
        matched with a face, else (its top, the place of c among the faces
        of the top), which may lie above the cap when c lies at it."""
        p = c[-1]
        table = len(c) > 1 and self.facets(p)
        if not table:
            return None
        bit, masks, shelling = table
        mask = 0
        for v in c[1:-1]:
            mask |= bit[v]
        ch, rj = shelling[next(j for j, m in enumerate(masks)
                               if mask & m == mask)]
        t = min(set(ch) - rj, default=None)
        if t is None:
            return None
        tb = bit[t]
        if not rj and mask in (0, tb) and 1 in self.a.classes[p].lengths:
            return None
        if mask & tb:
            return ()
        inner = tuple(v for v in ch if bit[v] & (mask | tb))
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


def realization_homology(a, ring=RING_Z, max_dim=None):
    """(homology, counts, truncated) of the realization of `a` capped at
    max_dim, with no CellComplex: counts and truncated as cell_counts gives
    them, and the homology of the degrees below a cap that truncates (which
    the cap determines), (0, []) where it has no group.  It is that of the
    Morse complex of the Babson-Hersh matching of the whole realization
    (_Gradient), coefficients forgotten, walked up to the cap.  Backing it:
    lex_shelling checks each shelling, the Euler check of the critical
    cells, the walk's refusal of a cycle, and d^2 = 0 in `homology`."""
    counts, truncated = cell_counts(a, max_dim)
    if truncated and not max_dim:  # no degree to report, nothing to shell
        return {}, counts, truncated
    whole = cell_counts(a)[0] if truncated else counts
    grad = _Gradient(a, len(whole) - 1)
    critical = grad.criticals(whole)[:len(counts)]
    while len(critical) > 1 and not critical[-1]:
        critical.pop()
    terms = gradient_terms(a, critical, grad.partner)
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
