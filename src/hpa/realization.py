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

`homology(cells, boundary, ring)` is the one path from a chain complex to
its homology: the Morse complex of the realization, S_v (x) (Morse complex)
(x) S_w and the complex that an interval's maximal chains generate all
reach it as a basis per degree and a boundary rule.
"""

from bisect import bisect_right
from itertools import compress, repeat
from operator import add

from . import RING_Z
from .algebra import require_cancellative
from .linalg import SparseMat, accumulate, invariant_factors, modp_rank


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
        self.names = [' '.join(c.rep.labels) if c.rep.labels else
                      f"e_{c.tail}" for c in a.classes]

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

    def d_squared_degree(self):
        """The first degree k with d(d(cell)) != 0 for some k-cell, or None.
        Symbolic: the faces of faces that enter with sign +1 and those with
        sign -1 must agree as multisets.  The face identities d_i d_j =
        d_{j-1} d_i (i < j) pair every face of a face with one of opposite
        sign, so a dimension whose cells all satisfy them passes; they are
        tested a column at a time (_identities_hold).  A dimension where
        some column differs is decided cell by cell, by comparing the two
        multisets."""
        face, at = self.face, self.at
        for k in range(2, self.max_dim + 1):
            if _identities_hold(face, at, k, *self.cells[k - 1:k + 1]):
                continue
            for cell in self.cells[k]:
                sub = [face[at[f]:at[f + 1]]
                       for f in face[at[cell]:at[cell + 1]]]
                # face j of face i enters with sign (-1)^(i + j)
                plus, minus = [sorted(g for i, fs in enumerate(sub)
                                      for g in fs[(i + s) % 2::2])
                               for s in (0, 1)]
                if plus != minus:
                    return k
        return None

    def format_cell(self, cell):
        return '[' + ' < '.join(self.names[c] for c in self.chain(cell)) + ']'

    def cell_names(self):
        """format_cell of every cell, by dimension, each from its parent's."""
        out = [['[' + self.names[self.last[c]] + ']' for c in self.cells[0]]]
        for k, cs in enumerate(self.cells[1:]):
            up, base = out[-1], self._starts[k]
            out.append([up[self.parent[c] - base][:-1] + ' < ' +
                        self.names[self.last[c]] + ']' for c in cs])
        return out


def _identities_hold(face, at, k, below, cells):
    """Whether d_i d_j = d_{j-1} d_i (i < j) holds on the k-cells `cells`.
    When each has k + 1 faces among the (k-1)-cells `below`, and each of
    those k faces, face j of every k-cell is a strided slice of the face
    table and face i of those is read at offset at[f] + i, so that each
    identity is one list comparison; otherwise False."""
    for cs, n in ((below, k), (cells, k + 1)):
        ends = at[cs.start:cs.stop + 1]
        if ends != list(range(ends[0], ends[-1] + 1, n)):
            return False
    offsets = []  # offsets[j][m]: where the faces of face j of cell m begin
    for j in range(k + 1):
        fs = face[at[cells.start] + j:at[cells.stop]:k + 1]
        if min(fs) < below.start or max(fs) >= below.stop:
            return False
        offsets.append(list(map(at.__getitem__, fs)))

    def faces_of(j, i):
        return list(map(face.__getitem__, map(add, offsets[j], repeat(i))))
    return all(faces_of(j, i) == faces_of(i, j - 1)
               for j in range(1, k + 1) for i in range(j))


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
    while stack:
        z, chain = stack.pop()
        for c in a.covers(z):
            if c == w:
                chains.append(chain)
            elif a.leq(c, w):
                stack.append((c, chain + (c,)))
    return chains


def lex_shelling(a, p):
    """The maximal chains F_j of the open interval (e_{t(p)}, p) in
    lexicographic order of their canonical words (the order of class ids),
    each with its restriction set R_j = {v : F_j - {v} lies in an earlier
    facet}; None when that order is not a shelling, that is when the faces
    of some F_j that no earlier facet holds are not exactly [R_j, F_j] (R_j
    = empty with the empty face already seen is a disjoint union).  The
    empty interval gives [((), frozenset())].  A face is a bit mask, one bit
    per element in order of first appearance; `seen` holds every face of
    the earlier facets.  The result is kept on the algebra, per class."""
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
        faces = [0]
        for b in bits:
            faces += [s | b for s in faces]
        if any(((s & rj) == rj) == (s in seen) for s in faces):
            out = None
            break
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


def euler_characteristic(complex_):
    return sum((-1) ** k * n for k, n in enumerate(complex_.counts()))
