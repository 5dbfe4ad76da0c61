"""Geometric realization of a path algebra as a regular semi-simplicial
complex.

Cells in dimension k are canonical chains (e_v < p_1 < ... < p_k) of path
classes, strictly increasing under left divisibility, with a trivial first
entry.  Face i deletes the i-th entry; deleting the trivial head rebases the
chain by dividing through p_1.  Regularity makes every incidence number
(-1)^i, so boundary matrices have entries in {-1, 0, 1}.
"""

from .linalg import SparseMat, accumulate, invariant_factors, modp_rank


RING_Z = ('Z',)
RING_Q = ('Q',)


def ring_fp(p):
    return ('Fp', p)


def parse_ring(text):
    """Ring selector: 'Z', 'Q', 'Fp:7' (or the shorthand 'F7')."""
    t = text.strip()
    if t == 'Z':
        return RING_Z
    if t == 'Q':
        return RING_Q
    if t.startswith('Fp:'):
        p = int(t[3:])
    elif t.startswith('F') and t[1:].isdigit():
        p = int(t[1:])
    else:
        raise ValueError(f"unknown ring {text!r} (want Z, Q or Fp:<p>)")
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"{p} is not prime")
    return ring_fp(p)


def ring_name(ring):
    return ring[0] if ring[0] != 'Fp' else f"Fp:{ring[1]}"


class CellComplex:
    """Cells graded by dimension; each cell is a tuple of class ids."""

    def __init__(self, hpa, cells_by_dim, truncated=False):
        self.hpa = hpa
        self.cells = [sorted(cs) for cs in cells_by_dim]
        while self.cells and not self.cells[-1]:
            self.cells.pop()
        self.index = {}
        for k, cs in enumerate(self.cells):
            for pos, cell in enumerate(cs):
                self.index[cell] = (k, pos)
        self.truncated = truncated
        self._faces = {}
        self._names = None

    @property
    def max_dim(self):
        return len(self.cells) - 1

    def counts(self):
        return [len(cs) for cs in self.cells]

    def tail(self, cell):
        return self.hpa.tail(cell[0])

    def head(self, cell):
        return self.hpa.head(cell[-1])

    def faces(self, cell):
        """List of the k+1 facets, position i giving the i-th face."""
        cached = self._faces.get(cell)
        if cached is not None:
            return cached
        k = len(cell) - 1
        out = []
        for i in range(k + 1):
            if i == 0:
                p1 = cell[1]
                rebased = [self.hpa.trivial_class[self.hpa.head(p1)]]
                for p in cell[2:]:
                    rebased.append(self.hpa.divide(p1, p))
                out.append(tuple(rebased))
            else:
                out.append(cell[:i] + cell[i + 1:])
        self._faces[cell] = out
        return out

    def boundary(self, cell):
        """The cellular boundary rule: (sign (-1)^i, facet i) pairs."""
        return [(-1 if i % 2 else 1, f) for i, f in enumerate(self.faces(cell))]

    def d_squared_degree(self):
        """The first degree k with d(d(cell)) != 0 for some k-cell, or None.
        Symbolic: the faces of faces that enter with sign +1 and those with
        sign -1 must agree as multisets."""
        for k in range(2, self.max_dim + 1):
            for cell in self.cells[k]:
                signed = ([], [])
                for i, f in enumerate(self.faces(cell)):
                    for j, g in enumerate(self.faces(f)):
                        signed[(i + j) % 2].append(g)
                if sorted(signed[0]) != sorted(signed[1]):
                    return k
        return None

    def format_cell(self, cell):
        names = self._names
        if names is None:
            # one name per class, built on first use
            names = self._names = [
                ' '.join(c.rep.labels) if c.rep.labels else f"e_{c.tail}"
                for c in self.hpa.classes]
        return '[' + ' < '.join([names[c] for c in cell]) + ']'


def build_realization(a, max_dim=None):
    """Enumerate all canonical chains of the path poset of `a`.

    max_dim caps the dimension (the complex is then a truncation; homology
    above the cap is not defined from it).
    """
    cells = []
    truncated = False

    for v in a.quiver.vertices:
        nontrivial = [c for c in a.classes_by_tail[v] if not a.is_trivial(c)]
        ups = {p: [q for q in a.quotients(p) if q != p] for p in nontrivial}
        e_v = a.trivial_class[v]
        # DFS over strictly increasing chains
        stack = [(e_v,)]
        while stack:
            chain = stack.pop()
            k = len(chain) - 1
            while len(cells) <= k:
                cells.append([])
            cells[k].append(chain)
            if max_dim is not None and k >= max_dim:
                if any(ups[chain[-1]] if k else nontrivial):
                    truncated = True
                continue
            for q in (ups[chain[-1]] if k else nontrivial):
                stack.append(chain + (q,))

    return CellComplex(a, cells, truncated=truncated)


class ChainComplex:
    """dims[k] = rank of C_k; d[k]: C_k -> C_{k-1} as SparseMat (d[0] = None)."""

    def __init__(self, dims, d, ring, truncated=False):
        self.dims = dims
        self.d = d
        self.ring = ring
        self.truncated = truncated

    @property
    def top(self):
        return len(self.dims) - 1

    def differential(self, k):
        if 1 <= k <= self.top:
            return self.d[k]
        return None

    def verify_d_squared(self):
        """Return the first degree k with d_{k-1} d_k != 0, or None."""
        for k in range(2, self.top + 1):
            a, b = self.d[k - 1], self.d[k]
            if a is None or b is None:
                continue
            # accumulate a*b column by column
            cols = {}
            for (i, j), v in b.entries.items():
                cols.setdefault(j, []).append((i, v))
            rows_a = {}
            for (i, j), v in a.entries.items():
                rows_a.setdefault(j, {})[i] = v
            for j, col in cols.items():
                acc = {}
                for i, v in col:
                    for r, w in rows_a.get(i, {}).items():
                        acc[r] = acc.get(r, 0) + v * w
                if any(acc.values()):
                    return k
        return None


def chain_complex(cells, boundary, ring, truncated=False):
    """ChainComplex with basis cells[k] in degree k, trailing empty degrees
    dropped; boundary(cell) returns (coefficient, face) pairs, each face a
    cell of the degree below."""
    cells = list(cells)
    while len(cells) > 1 and not cells[-1]:
        cells.pop()
    d = [None]
    for k in range(1, len(cells)):
        index = {cell: i for i, cell in enumerate(cells[k - 1])}
        mat = SparseMat(len(cells[k - 1]), len(cells[k]))
        for j, cell in enumerate(cells[k]):
            for coef, face in boundary(cell):
                accumulate(mat.entries, (index[face], j), coef)
        d.append(mat)
    return ChainComplex([len(cs) for cs in cells], d, ring, truncated)


def cw_chain_complex(complex_, ring=RING_Z):
    """Cellular chain complex of a CellComplex over the given ring: the
    facet i of a cell enters its boundary with sign (-1)^i."""
    return chain_complex(complex_.cells, complex_.boundary, ring,
                         complex_.truncated)


def homology(chain):
    """Per-degree (rank, torsion list).  Raises on d^2 != 0, reporting the
    offending degree.  For a truncated complex the top degree is omitted."""
    bad = chain.verify_d_squared()
    if bad is not None:
        raise ValueError(f"d^2 != 0 at degree {bad}")
    kind = chain.ring[0]
    if kind not in ('Z', 'Q', 'Fp'):
        raise ValueError(f"unknown ring {chain.ring!r}")
    top = chain.top
    # rank[k] and torsion[k] of d_k: C_k -> C_{k-1}, each d_k eliminated once
    rank = [0] * (top + 2)
    torsion = [[] for _ in range(top + 2)]
    for k in range(1, top + 1):
        d = chain.differential(k)
        if d is None:
            continue
        if kind == 'Fp':
            rank[k] = modp_rank(d, chain.ring[1])
        else:
            facs = invariant_factors(d)
            rank[k] = len(facs)
            if kind == 'Z':
                torsion[k] = [f for f in facs if f > 1]
    limit = top if not chain.truncated else top - 1
    return {k: (chain.dims[k] - rank[k] - rank[k + 1], torsion[k + 1])
            for k in range(limit + 1)}


def euler_characteristic(complex_):
    return sum((-1) ** k * n for k, n in enumerate(complex_.counts()))
