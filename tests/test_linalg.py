import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from hpa.linalg import (
    SparseMat, homology, invariant_factors, modp_rank, snf_diagonal,
)
# the integer solves through a column echelon form live with their one
# caller, the toric layer
from hpa.toric import integer_kernel_basis, solve_integer

from conftest import determinant, matrix_complex


def test_snf_diag_2_3():
    # gcd(2,3) = 1 and the product of factors is |det| = 6
    assert snf_diagonal([[2, 0], [0, 3]]) == [1, 6]


def test_snf_1234():
    # det = -2, gcd of entries 1
    assert snf_diagonal([[1, 2], [3, 4]]) == [1, 2]


def test_snf_zero_matrix():
    assert snf_diagonal([[0, 0, 0], [0, 0, 0]]) == [0, 0]


def test_snf_even_matrix():
    assert snf_diagonal([[2, 4], [6, 8]]) == [2, 4]


def test_snf_negative_scalar():
    assert snf_diagonal([[-5]]) == [5]


def _check_snf(M):
    """snf_diagonal(M): nonnegative, d_1 | d_2 | ..., zeros last, and the
    same multiset as sympy's Smith form."""
    d = snf_diagonal(M)
    assert len(d) == min(len(M), len(M[0]))
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    S = sympy_snf(sympy.Matrix(M))
    assert sorted(d) == sorted(abs(S[i, i]) for i in range(min(S.shape)))
    return d


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_properties_random(n, m, data):
    _check_snf([[data.draw(st.integers(-6, 6)) for _ in range(m)]
                for _ in range(n)])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_snf_diagonal_matches_smith_form(n, m, data):
    # rank-deficient and torsion-heavy draws: the modulus D of snf_diagonal
    # is then a product of several non-unit pivots
    _check_snf([[data.draw(st.sampled_from((0, 0, 2, -2, 3, 4, 6, -9)))
                 for _ in range(m)] for _ in range(n)])


# The core that unit elimination leaves of draw #1 of
#   rnd = random.Random(1)
#   n, m = rnd.randint(5, 25), rnd.randint(5, 25)
#   [[rnd.choice((1, -1, 2, -2, 3)) if rnd.random() < 0.4 else 0
#     for _ in range(m)] for _ in range(n)]
# a 17 x 22 matrix.  A Smith form with unbounded entries ran for minutes on
# it.
DENSE_CORE = [
    [96, -543, -509, 294, 104, 5, -42, 74, -181, 86, -335],
    [3, 33, 20, -9, -2, 3, 8, -9, 5, -4, 20],
    [-762, 4390, 4130, -2354, -869, 12, 338, -593, 1522, -637, 2692],
    [129, -696, -660, 385, 143, -7, -49, 83, -245, 107, -428],
    [438, -2483, -2339, 1339, 496, 2, -185, 331, -863, 371, -1529],
    [372, -2141, -2013, 1152, 407, 2, -164, 294, -737, 319, -1318],
]


def test_snf_diagonal_of_a_dense_core_is_fast():
    start = time.perf_counter()
    assert snf_diagonal(DENSE_CORE) == [1] * 6
    assert time.perf_counter() - start < 1


def _sparse(dense):
    return SparseMat({(i, j): v for i, row in enumerate(dense)
                      for j, v in enumerate(row) if v})


def test_invariant_factors_sparse_matches_dense():
    dense = [[2, 0], [0, 3]]
    assert invariant_factors(_sparse(dense)) == [1, 6]
    dense = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]  # rank 2, unimodular-free part
    assert invariant_factors(_sparse(dense)) == [1, 3]


def _check_elimination(dense):
    """invariant_factors against sympy's Smith form, and each mod-p rank
    against the number of factors p does not divide."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    S = sympy_snf(sympy.Matrix(dense))
    factors = invariant_factors(_sparse(dense))
    assert factors == sorted(abs(S[i, i]) for i in range(min(S.shape)) if S[i, i])
    for p in (2, 3):
        assert modp_rank(_sparse(dense), p) == sum(f % p != 0 for f in factors)
    return factors


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_integer_rank_random(n, m, data):
    dense = [[data.draw(st.integers(-3, 3)) for _ in range(m)] for _ in range(n)]
    sympy = pytest.importorskip("sympy")
    assert len(_check_elimination(dense)) == sympy.Matrix(dense).rank()


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 12), st.integers(6, 12), st.randoms(use_true_random=True))
def test_sparse_elimination_random(n, m, rnd):
    # sparse, mostly unit entries: elimination makes fill-ins that become
    # the last pivot candidates of their rows, which 5x5 draws seldom do
    _check_elimination([[rnd.choice((1, -1, 1, -1, 2)) if rnd.random() < 0.4
                         else 0 for _ in range(m)] for _ in range(n)])


def test_modp_rank():
    m = _sparse([[2, 0], [0, 3]])
    assert modp_rank(m, 2) == 1
    assert modp_rank(m, 3) == 1
    assert modp_rank(m, 5) == 2


def test_homology_circle():
    # two vertices, two parallel edges a -> b
    h = homology(*matrix_complex([[-1, -1], [1, 1]]), ('Z',))
    assert h[0] == (1, [])
    assert h[1] == (1, [])


def test_homology_torsion():
    # cellular chain complex with d2 = (2): H_1 = Z/2
    cells, boundary = matrix_complex([[0]], [[2]])
    assert homology(cells, boundary, ('Z',))[1] == (0, [2])
    assert homology(cells, boundary, ('Fp', 2))[1] == (1, [])
    assert homology(cells, boundary, ('Q',))[1] == (0, [])


def test_solve_integer():
    assert solve_integer([[2]], [4]) == [2]
    assert solve_integer([[2]], [3]) is None
    x = solve_integer([[1, 1], [0, 2]], [3, 4])
    assert x is not None
    assert [x[0] + x[1], 2 * x[1]] == [3, 4]


def test_kernel_basis():
    basis = integer_kernel_basis([[1, 1]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and (abs(v[0]), abs(v[1])) == (1, 1)
    assert integer_kernel_basis([[1, 0], [0, 1]]) == []


def _apply(M, x):
    return [sum(v * w for v, w in zip(row, x)) for row in M]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_integer_solve_and_kernel_random(n, m, data):
    M = [[data.draw(st.integers(-4, 4)) for _ in range(m)] for _ in range(n)]
    b = [data.draw(st.integers(-6, 6)) for _ in range(n)]
    x = solve_integer(M, b)
    if x is not None:
        assert _apply(M, x) == b
    elif m <= 3:
        # None claims that there is no solution at all, so none in a box
        assert all(_apply(M, y) != b
                   for y in itertools.product(range(-8, 9), repeat=m))
    basis = integer_kernel_basis(M)
    for k in basis:
        assert _apply(M, k) == [0] * n
    sympy = pytest.importorskip("sympy")
    assert len(basis) == m - sympy.Matrix(M).rank()
    # saturated: the gcd of the maximal minors is 1, so the basis spans the
    # whole kernel lattice and not a sublattice of it
    minors = [determinant([[k[j] for j in cols] for k in basis])
              for cols in itertools.combinations(range(m), len(basis))]
    assert math.gcd(*minors) == 1
