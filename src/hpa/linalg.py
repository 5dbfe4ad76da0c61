"""Exact integer linear algebra: the homology of a chain complex given as
a basis per degree and a boundary rule, by sparse elimination for ranks
and torsion and the invariant factors of the small dense core it leaves.

Everything here is Python ints; no rationals, no floats.  Only what
eliminates loads this module.
"""

import heapq
import math

from . import RING_Z


def _swap_rows(M, i, j):
    M[i], M[j] = M[j], M[i]


def _swap_cols(M, i, j):
    for row in M:
        row[i], row[j] = row[j], row[i]


# ---------------------------------------------------------------------------
# Sparse integer matrices and elimination
#
# Boundary matrices of regular complexes are overwhelmingly +-1 entries, so
# rank/torsion are computed by splitting off unit pivots cheaply (chosen by
# Markowitz fill count) and taking the invariant factors of the small dense
# core that remains.


class SparseMat:
    """entries maps (row, column) to a nonzero int."""

    def __init__(self, entries=()):
        self.entries = dict(entries)

    def nnz(self):
        return len(self.entries)


def _elim_state(mat, p=None):
    rows = {}
    cols = {}
    for (i, j), v in mat.entries.items():
        if p is not None:
            v %= p
            if not v:
                continue
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, set()).add(i)
    return rows, cols


def _eliminate_units(rows, cols, p=None):
    """Split off invertible pivots; returns number of pivots taken.

    Over Z (p is None) only entries of absolute value 1 are used as pivots;
    mod a prime p every nonzero is invertible.  Rows/cols are consumed in
    place; whatever remains has no invertible entries (over Z) or is empty
    (mod p).
    """
    heap = []
    for i, r in rows.items():
        for j, v in r.items():
            if p is not None or v in (1, -1):
                cost = (len(r) - 1) * (len(cols[j]) - 1)
                heapq.heappush(heap, (cost, i, j))
    done = 0
    while heap:
        cost, pi, pj = heapq.heappop(heap)
        r = rows.get(pi)
        if r is None or pj not in r:
            continue
        v = r[pj]
        if p is None and v not in (1, -1):
            continue
        if cost != (len(r) - 1) * (len(cols[pj]) - 1):
            heapq.heappush(heap, ((len(r) - 1) * (len(cols[pj]) - 1), pi, pj))
            continue
        # pivot at (pi, pj)
        done += 1
        inv = v if p is None else pow(v, -1, p)  # v = +-1 over Z: own inverse
        prow = rows.pop(pi)
        for j in prow:
            cols[j].discard(pi)
        for i in list(cols.get(pj, ())):
            ri = rows[i]
            factor = ri[pj] * inv if p is None else (ri[pj] * inv) % p
            if not factor:
                continue
            for j, pv in prow.items():
                if j == pj:
                    continue
                old = ri.get(j, 0)
                nv = old - factor * pv
                if p is not None:
                    nv %= p
                if not nv:
                    if old:
                        del ri[j]
                        cols[j].discard(i)
                    continue
                if not old:
                    cols.setdefault(j, set()).add(i)
                ri[j] = nv
                # push new pivot candidates only: a fill-in, or over Z an
                # entry that has just become a unit; a candidate already on
                # the heap has its cost refreshed when it is popped
                if (not old if p is not None
                        else nv in (1, -1) and old not in (1, -1)):
                    heapq.heappush(
                        heap, ((len(ri) - 1) * (len(cols[j]) - 1), i, j))
            del ri[pj]
            cols[pj].discard(i)
            if not ri:
                del rows[i]
        cols.pop(pj, None)
    return done


def _core_dense(rows):
    """Pack the remaining rows into a small dense matrix."""
    if not rows:
        return []
    col_ids = sorted({j for r in rows.values() for j in r})
    idx = {j: t for t, j in enumerate(col_ids)}
    out = []
    for i in sorted(rows):
        row = [0] * len(col_ids)
        for j, v in rows[i].items():
            row[idx[j]] = v
        out.append(row)
    return out


def _rank_and_minor(A):
    """Rank r of a dense integer matrix and |det| of one of its nonsingular
    r x r submatrices (1 when r = 0), by fraction-free (Bareiss) elimination
    with full pivoting.  A is overwritten."""
    n, m = len(A), len(A[0])
    prev = 1
    for r in range(min(n, m)):
        pivot = next(((i, j) for i in range(r, n) for j in range(r, m)
                      if A[i][j]), None)
        if pivot is None:
            return r, abs(prev)
        _swap_rows(A, r, pivot[0])
        _swap_cols(A, r, pivot[1])
        for Ai in A[r + 1:]:
            Ai[r + 1:] = [(v * A[r][r] - Ai[r] * w) // prev
                          for v, w in zip(Ai[r + 1:], A[r][r + 1:])]
        prev = A[r][r]
    return min(n, m), abs(prev)


def snf_diagonal(M):
    """Invariant factors d_1 | d_2 | ... of a dense integer matrix, one per
    row or column (whichever is fewer), zeros last; no transforms.

    With r the rank and D the determinant of a nonsingular r x r submatrix,
    d_1 ... d_r divides D, so the columns plus D Z^n span a lattice with the
    invariant factors gcd(d_i, D) = d_i.  Its Smith form is computed on the
    entries modulo D, which stay below D (Domich, Kannan and Trotter, 1987).
    """
    if not M or not M[0]:
        return []
    n, m = len(M), len(M[0])
    r, D = _rank_and_minor([list(row) for row in M])
    A = [[v % D for v in row] for row in M]
    diag = []
    while len(diag) < r:
        t = len(diag)
        pivot = min(((A[i][j], i, j) for i in range(t, n)
                     for j in range(t, m) if A[i][j]), default=None)
        if pivot is None:
            break  # the rest of the block is 0 mod D: factors equal to D
        p, i, j = pivot
        _swap_rows(A, t, i)
        _swap_cols(A, t, j)
        for i in range(t + 1, n):
            if A[i][t]:
                q = A[i][t] // p
                A[i] = [(v - q * w) % D for v, w in zip(A[i], A[t])]
        for j in range(t + 1, m):
            q = A[t][j] // p
            for row in A[t:]:
                row[j] = (row[j] - q * row[t]) % D
        if any(row[t] for row in A[t + 1:]) or any(A[t][t + 1:]):
            continue  # a remainder below p is the next pivot
        g = math.gcd(p, D)
        bad = next((j for row in A[t + 1:] for j in range(t + 1, m)
                    if row[j] % g), None)
        if bad is None:
            diag.append(g)
        else:  # fold that column in: its remainder is the next pivot
            for row in A[t:]:
                row[t] = (row[t] + row[bad]) % D
    return diag + [D] * (r - len(diag)) + [0] * (min(n, m) - r)


def invariant_factors(mat):
    """Nonzero invariant factors of a SparseMat over Z (1s included)."""
    rows, cols = _elim_state(mat)
    units = _eliminate_units(rows, cols)
    rest = [d for d in snf_diagonal(_core_dense(rows)) if d != 0]
    return [1] * units + rest


def modp_rank(mat, p):
    rows, cols = _elim_state(mat, p)
    return _eliminate_units(rows, cols, p)


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
        entries = {}
        for j, cell in enumerate(cells[k]):
            for coef, face in boundary(cell):
                key = index[face], j
                entries[key] = entries.get(key, 0) + coef
        d = SparseMat((key, v) for key, v in entries.items() if v)
        product = {}
        for (i, j), v in d.entries.items():
            for r, w in column.get(i, ()):
                product[r, j] = product.get((r, j), 0) + v * w
        if any(product.values()):
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
