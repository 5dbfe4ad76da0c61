"""Exact integer/rational linear algebra: Smith normal form, sparse
elimination for homology ranks and torsion, integer solves, and a small
rational simplex for feasibility questions.

Everything here is exact (Python ints / fractions.Fraction); no floats.
"""

from dataclasses import dataclass
from fractions import Fraction
import heapq
import math


# ---------------------------------------------------------------------------
# Smith normal form (dense, with unimodular transforms)


@dataclass
class SNFResult:
    D: list          # diagonal matrix, same shape as input
    U: list          # unimodular, rows x rows
    V: list          # unimodular, cols x cols
    diagonal: list   # the invariant factors d_1 | d_2 | ... (nonnegative)


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(M, i, j):
    M[i], M[j] = M[j], M[i]


def _swap_cols(M, i, j):
    for row in M:
        row[i], row[j] = row[j], row[i]


def _addmul_row(M, dst, src, q):
    # row_dst += q * row_src
    Ms, Md = M[src], M[dst]
    for j in range(len(Md)):
        Md[j] += q * Ms[j]


def _addmul_col(M, dst, src, q):
    for row in M:
        row[dst] += q * row[src]


def smith_normal_form(M):
    """Return SNFResult with U*M*V = D, U and V unimodular, the diagonal of D
    nonnegative and satisfying d_1 | d_2 | ... .

    Deterministic: at each step the pivot is the entry of smallest absolute
    value in the remaining block, ties broken by (row, col) position.
    """
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    D = [list(map(int, row)) for row in M]
    if any(len(row) != ncols for row in D):
        raise ValueError("ragged matrix")
    U = identity_matrix(nrows)
    V = identity_matrix(ncols)

    t = 0
    while t < min(nrows, ncols):
        # pick pivot: smallest |value| among D[i][j], i,j >= t
        pivot = None
        for i in range(t, nrows):
            row = D[i]
            for j in range(t, ncols):
                v = row[j]
                if v:
                    key = (abs(v), i, j)
                    if pivot is None or key < pivot[0]:
                        pivot = (key, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            _swap_rows(D, t, pi)
            _swap_rows(U, t, pi)
        if pj != t:
            _swap_cols(D, t, pj)
            _swap_cols(V, t, pj)

        # clear row and column t by division with remainder; if a remainder
        # appears, it becomes a smaller pivot next pass
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    _addmul_row(D, i, t, -q)
                    _addmul_row(U, i, t, -q)
                    if D[i][t]:
                        # remainder smaller than pivot: swap it up, restart
                        _swap_rows(D, t, i)
                        _swap_rows(U, t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    _addmul_col(D, j, t, -q)
                    _addmul_col(V, j, t, -q)
                    if D[t][j]:
                        _swap_cols(D, t, j)
                        _swap_cols(V, t, j)
                        dirty = True

        # divisibility: pivot must divide every entry of the remaining block
        bad = None
        p = D[t][t]
        for i in range(t + 1, nrows):
            row = D[i]
            for j in range(t + 1, ncols):
                if row[j] % p:
                    bad = (i, j)
                    break
            if bad:
                break
        if bad:
            # fold the offending column into column t and redo this step
            _addmul_col(D, t, bad[1], 1)
            _addmul_col(V, t, bad[1], 1)
            continue
        t += 1

    # normalize signs
    for i in range(min(nrows, ncols)):
        if D[i][i] < 0:
            for j in range(ncols):
                D[i][j] = -D[i][j]
            for row in V:
                row[i] = -row[i]

    diag = [D[i][i] for i in range(min(nrows, ncols))]
    return SNFResult(D=D, U=U, V=V, diagonal=diag)


# ---------------------------------------------------------------------------
# Sparse integer matrices and elimination
#
# Boundary matrices of regular complexes are overwhelmingly +-1 entries, so
# rank/torsion are computed by splitting off unit pivots cheaply (chosen by
# Markowitz fill count) and running dense SNF on the small remaining core.


class SparseMat:
    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}  # (i, j) -> nonzero int
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    def __setitem__(self, key, v):
        if v:
            self.entries[key] = v
        else:
            self.entries.pop(key, None)

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def nnz(self):
        return len(self.entries)


def accumulate(acc, key, v):
    """acc[key] += v on a sparse dict, dropping the entry when it cancels."""
    nv = acc.get(key, 0) + v
    if nv:
        acc[key] = nv
    else:
        acc.pop(key, None)


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


# ---------------------------------------------------------------------------
# Integer linear systems (via SNF)


def solve_integer(M, b):
    """One integer solution x of M x = b, or None.  M dense, b a list."""
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    if nrows == 0:
        return [0] * ncols  # empty system
    snf = smith_normal_form(M)
    ub = [sum(snf.U[i][t] * b[t] for t in range(nrows)) for i in range(nrows)]
    y = [0] * ncols
    for i in range(nrows):
        d = snf.D[i][i] if i < ncols else 0
        if d:
            if ub[i] % d:
                return None
            y[i] = ub[i] // d
        elif ub[i]:
            return None
    return [sum(snf.V[i][t] * y[t] for t in range(ncols)) for i in range(ncols)]


def integer_kernel_basis(M):
    """Basis (list of vectors) of {x in Z^ncols : M x = 0}."""
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    if nrows == 0:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    snf = smith_normal_form(M)
    rank = sum(1 for d in snf.diagonal if d)
    return [[snf.V[i][t] for i in range(ncols)] for t in range(rank, ncols)]


# ---------------------------------------------------------------------------
# Exact rational simplex (maximize c.x, A x = b, x >= 0)
#
# Two-phase tableau simplex with Bland's rule; all data Fraction, so it
# terminates and is exact.  Problem sizes here are tiny (toric feasibility
# questions in <= a dozen variables).


def lp_maximize(c, A, b):
    """Return (status, value, x) for max c.x s.t. A x = b, x >= 0.

    status is 'optimal', 'infeasible' or 'unbounded'; on 'optimal', value is a
    Fraction and x a list of Fractions.
    """
    m = len(A)
    n = len(c)
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    # tableau columns: n real vars + m artificials | rhs
    T = [A[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
         + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    def pivot(T, basis, row, col):
        pr = T[row]
        pv = pr[col]
        T[row] = [v / pv for v in pr]
        pr = T[row]
        for i in range(len(T)):
            if i != row and T[i][col]:
                f = T[i][col]
                T[i] = [a - f * bv for a, bv in zip(T[i], pr)]
        basis[row] = col

    def run(T, basis, obj, ncols):
        # obj: coefficient per column (maximize); returns False if unbounded
        while True:
            # reduced costs: z_j - c_j with current basis
            lam = [obj[basis[i]] for i in range(m)]
            entering = None
            for j in range(ncols):
                if j in basis:
                    continue
                red = obj[j] - sum(lam[i] * T[i][j] for i in range(m))
                if red > 0:
                    entering = j
                    break  # Bland: first improving index
            if entering is None:
                return True
            leaving = None
            best = None
            for i in range(m):
                if T[i][entering] > 0:
                    ratio = T[i][-1] / T[i][entering]
                    key = (ratio, basis[i])
                    if best is None or key < best:
                        best = key
                        leaving = i
            if leaving is None:
                return False
            pivot(T, basis, leaving, entering)

    # phase 1: maximize -(sum of artificials)
    obj1 = [Fraction(0)] * n + [Fraction(-1)] * m
    run(T, basis, obj1, n + m)
    val1 = sum(T[i][-1] for i in range(m) if basis[i] >= n)
    if val1 != 0:
        return 'infeasible', None, None
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if T[i][j]:
                    pivot(T, basis, i, j)
                    break
    # rows still basic in an artificial are all-zero constraints; keep them,
    # the artificial columns are fixed at 0 by never letting them re-enter
    obj2 = c + [Fraction(-1)] * m  # artificials never improve
    if not run(T, basis, obj2, n):
        return 'unbounded', None, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return 'optimal', value, x


def lp_feasible(A, b):
    """Is {x >= 0 : A x = b} nonempty?"""
    status, _, x = lp_maximize([0] * (len(A[0]) if A else 0), A, b)
    return (status == 'optimal'), x
