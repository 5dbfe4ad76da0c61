import time

import pytest

from hpa import FP_LIMIT, RING_Q, RING_Z, parse_ring, ring_fp
from hpa.algebra import free_algebra, from_document, tensor
from hpa.linalg import SparseMat
from hpa.quiver import Quiver, linear_quiver
from hpa.realization import (ChainComplex, build_realization,
                             cw_chain_complex, euler_characteristic, homology)

from conftest import check_semisimplicial


def test_parse_ring():
    assert parse_ring('Z') == ('Z',)
    assert parse_ring('Q') == ('Q',)
    assert parse_ring('Fp:7') == ('Fp', 7)
    assert parse_ring('F2') == ('Fp', 2)
    with pytest.raises(ValueError):
        parse_ring('Fp:6')
    with pytest.raises(ValueError):
        parse_ring('R')
    # Miller-Rabin, not trial division up to sqrt(p): large primes answer at
    # once, and p at or above the bound where it is exact is refused
    for text, prime in [('Fp:1000000000000000003', True),
                        ('Fp:1000000000000000001', False),
                        (f'Fp:{2 ** 61 - 1}', True),
                        (f'Fp:{FP_LIMIT}', False)]:
        t0 = time.perf_counter()
        if prime:
            assert parse_ring(text) == ('Fp', int(text[3:]))
        else:
            with pytest.raises(ValueError):
                parse_ring(text)
        assert time.perf_counter() - t0 < 0.5, text


def test_parse_ring_agrees_with_trial_division():
    for p in range(2, 3000):
        prime = all(p % d for d in range(2, int(p ** 0.5) + 1))
        if prime:
            assert parse_ring(f'Fp:{p}') == ('Fp', p)
        else:
            with pytest.raises(ValueError):
                parse_ring(f'Fp:{p}')
    # strong pseudoprimes to several of the bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        with pytest.raises(ValueError):
            parse_ring(f'Fp:{n}')


def test_p2_cells(p2):
    x = build_realization(p2)
    assert x.counts() == [3, 12, 9]
    assert euler_characteristic(x) == 0
    assert check_semisimplicial(x) == []


def test_p2_homology(p2):
    x = build_realization(p2)
    h = homology(cw_chain_complex(x, RING_Z))
    assert h == {0: (1, []), 1: (2, []), 2: (1, [])}
    hq = homology(cw_chain_complex(x, RING_Q))
    assert {k: r for k, (r, _) in hq.items()} == {0: 1, 1: 2, 2: 1}
    h2 = homology(cw_chain_complex(x, ring_fp(2)))
    assert {k: r for k, (r, _) in h2.items()} == {0: 1, 1: 2, 2: 1}


def test_a3_free_tree(p2):
    a = free_algebra(linear_quiver(3))
    x = build_realization(a)
    assert x.counts() == [4, 6, 4, 1]
    assert euler_characteristic(x) == 1
    h = homology(cw_chain_complex(x, RING_Z))
    assert h[0] == (1, [])
    assert all(h[k] == (0, []) for k in range(1, 4))


def test_free_parallel_arrows_graph_homology():
    # free algebra on a 3-arrow Kronecker-type quiver: wedge of two circles
    a = free_algebra(Quiver(['u', 'v'], [('a', 'u', 'v'), ('b', 'u', 'v'),
                                         ('c', 'u', 'v')]))
    x = build_realization(a)
    assert x.counts() == [2, 3]
    h = homology(cw_chain_complex(x, RING_Z))
    assert h == {0: (1, []), 1: (2, [])}


def test_tree_stratum(p2):
    x = build_realization(p2)
    cell = x.cells[1][0]
    assert x.tail(cell) == p2.tail(cell[0])
    strata = {x.tail(c) for c in x.cells[2]}
    assert strata == {'v0'}  # all 2-cells live over the root vertex


def test_kunneth_euler_and_betti(p2):
    a2 = free_algebra(linear_quiver(1))
    t = tensor(p2, a2)
    xt = build_realization(t)
    xp = build_realization(p2)
    assert euler_characteristic(xt) == \
        euler_characteristic(xp) * 1  # interval has chi = 1
    hq = homology(cw_chain_complex(xt, RING_Q))
    assert {k: r for k, (r, _) in hq.items() if r} == {0: 1, 1: 2, 2: 1}
    assert check_semisimplicial(xt) == []


def test_truncation(p2):
    x = build_realization(p2, max_dim=1)
    assert x.counts() == [3, 12]
    assert x.truncated
    h = homology(cw_chain_complex(x, RING_Z))
    assert list(h) == [0]
    assert h[0] == (1, [])


def test_d_squared_abort():
    d1 = SparseMat(1, 1, {(0, 0): 1})
    d2 = SparseMat(1, 1, {(0, 0): 1})
    chain = ChainComplex([1, 1, 1], [None, d1, d2], RING_Z)
    with pytest.raises(ValueError, match="degree 2"):
        homology(chain)


def test_face_edges(p2):
    x = build_realization(p2)
    edges = [(cell, f) for k in range(1, x.max_dim + 1)
             for cell in x.cells[k] for f in x.faces(cell)]
    assert all(x.tail(f) in (x.tail(cell), p2.head(cell[1]))
               for cell, f in edges)
    assert len(edges) == 12 * 2 + 9 * 3


def test_semisimplicial_identities_f3_would_go_here_small_grid():
    # product of two intervals: the square; checked exhaustively
    t = tensor(free_algebra(linear_quiver(1)),
               free_algebra(linear_quiver(1, vertex_prefix='w',
                                          arrow_prefix='b')))
    x = build_realization(t)
    assert x.counts() == [4, 5, 2]  # square split along the diagonal class
    assert check_semisimplicial(x) == []
    assert euler_characteristic(x) == 1
    h = homology(cw_chain_complex(x, RING_Z))
    assert h[0] == (1, []) and h[1] == (0, []) and h[2] == (0, [])
