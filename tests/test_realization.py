from collections import Counter
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from hpa import FP_LIMIT, RING_Q, RING_Z, parse_ring, ring_fp
from hpa.algebra import NotCancellativeError, check_hpa, from_document, tensor
from hpa.quiver import Quiver
from hpa.morse import babson_hersh_matching
from hpa.linalg import homology
from hpa.realization import (build_realization, euler_characteristic, faces,
                             realization_homology, stratum)

from conftest import (algebras, cell_faces, cell_matching, cell_of,
                      cellular_homology, check_semisimplicial,
                      d_squared_degree, free_algebra, identities_hold,
                      linear_quiver, matrix_complex, morse_homology,
                      morse_pairs, reference_d_squared_degree,
                      reference_faces)


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
    assert euler_characteristic(x.counts()) == 0
    assert check_semisimplicial(x) == []


def test_p2_homology(p2):
    x = build_realization(p2)
    h = cellular_homology(x, RING_Z)
    assert h == {0: (1, []), 1: (2, []), 2: (1, [])}
    hq = cellular_homology(x, RING_Q)
    assert {k: r for k, (r, _) in hq.items()} == {0: 1, 1: 2, 2: 1}
    h2 = cellular_homology(x, ring_fp(2))
    assert {k: r for k, (r, _) in h2.items()} == {0: 1, 1: 2, 2: 1}


def test_a3_free_tree(p2):
    a = free_algebra(linear_quiver(3))
    x = build_realization(a)
    assert x.counts() == [4, 6, 4, 1]
    assert euler_characteristic(x.counts()) == 1
    h = cellular_homology(x, RING_Z)
    assert h[0] == (1, [])
    assert all(h[k] == (0, []) for k in range(1, 4))


def test_free_parallel_arrows_graph_homology():
    # free algebra on a 3-arrow Kronecker-type quiver: wedge of two circles
    a = free_algebra(Quiver(['u', 'v'], [('a', 'u', 'v'), ('b', 'u', 'v'),
                                         ('c', 'u', 'v')]))
    x = build_realization(a)
    assert x.counts() == [2, 3]
    h = cellular_homology(x, RING_Z)
    assert h == {0: (1, []), 1: (2, [])}


def test_tree_stratum(p2):
    x = build_realization(p2)
    strata = {p2.tail(x.last[c]) for c in x.cells[2]}
    assert strata == {'v0'}  # all 2-cells live over the root vertex


def test_kunneth_euler_and_betti(p2):
    a2 = free_algebra(linear_quiver(1))
    t = tensor(p2, a2)
    xt = build_realization(t)
    xp = build_realization(p2)
    assert euler_characteristic(xt.counts()) == \
        euler_characteristic(xp.counts()) * 1  # interval has chi = 1
    hq = cellular_homology(xt, RING_Q)
    assert {k: r for k, (r, _) in hq.items() if r} == {0: 1, 1: 2, 2: 1}
    assert check_semisimplicial(xt) == []


def test_truncation(p2):
    x = build_realization(p2, max_dim=1)
    assert x.counts() == [3, 12]
    assert x.truncated
    h = cellular_homology(x, RING_Z)
    assert list(h) == [0]
    assert h[0] == (1, [])


def test_d_squared_abort():
    with pytest.raises(ValueError, match="degree 2"):
        homology(*matrix_complex([[1]], [[1]]), RING_Z)


def test_d_squared_abort_names_the_first_bad_degree():
    # d_1 = 0, so d_1 d_2 = 0; d_2 d_3 = (1)
    with pytest.raises(ValueError, match=r"^d\^2 != 0 at degree 3$"):
        homology(*matrix_complex([[0]], [[1]], [[1]]), RING_Z)


def test_homology_refuses_an_unknown_ring_before_building():
    calls = []

    def boundary(cell):
        calls.append(cell)
        return []
    with pytest.raises(ValueError, match=r"^unknown ring \('R',\)$"):
        homology([['v'], ['e']], boundary, ('R',))
    assert calls == []


def test_homology_calls_boundary_once_per_cell(p2):
    # each d_k is built once, also when the d^2 check and the elimination
    # both read it; a trailing empty degree adds no call
    x = build_realization(p2)
    calls = Counter()

    def boundary(cell):
        calls[cell] += 1
        return [(-1 if i % 2 else 1, f)
                for i, f in enumerate(cell_faces(x, cell))]
    h = homology(list(x.cells) + [[]], boundary, RING_Z)
    assert h == cellular_homology(x)
    assert calls == Counter(range(len(x.cells[0]), sum(x.counts())))


def test_face_edges(p2):
    x = build_realization(p2)
    edges = [(cell, f) for k in range(1, x.max_dim + 1)
             for cell in x.cells[k] for f in cell_faces(x, cell)]
    assert all(p2.tail(x.last[f]) in (p2.tail(x.last[cell]),
                                      p2.head(x.chain(cell)[1]))
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
    assert euler_characteristic(x.counts()) == 1
    h = cellular_homology(x, RING_Z)
    assert h[0] == (1, []) and h[1] == (0, []) and h[2] == (0, [])


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)))
def test_faces_and_d_squared_degree_match_definitions(a):
    # face 0 of a chain need not be a chain when a is not cancellative
    if not check_hpa(a).ok:
        return
    x = build_realization(a)
    for k in range(1, x.max_dim + 1):
        for cell in x.cells[k]:
            chain = x.chain(cell)
            p1 = chain[1]
            assert x.chain(cell_faces(x, cell)[0]) == \
                (a.trivial_class[a.head(p1)],) + \
                tuple(a.divide(p1, p) for p in chain[2:])
    assert d_squared_degree(x) == reference_d_squared_degree(x)


def _check_tree(a, max_dim):
    """The simplex tree against the chains it stands for: the ids of each
    dimension run in sorted chain order, cell_of inverts x.chain (and finds
    no cell for a tuple that is no chain), and the face table and
    realization.faces agree with the slicing rule.  realization.stratum
    lists the cells that end at each class, in id order."""
    x = build_realization(a, max_dim=max_dim)
    for k, cells in enumerate(x.cells):
        chains = [x.chain(c) for c in cells]
        assert chains == sorted(chains)
        assert len(set(chains)) == len(chains)
        for c, chain in zip(cells, chains):
            assert cell_of(x, chain) == c
            assert len(chain) == k + 1
            if k:
                assert [x.chain(f) for f in cell_faces(x, c)] == \
                    faces(a, chain) == reference_faces(a, chain)
    # a tuple that is no canonical chain names no cell
    for p in range(len(a.classes)):
        if not a.is_trivial(p):
            assert cell_of(x, (p,)) is None
            assert cell_of(x, (a.trivial_class[a.tail(p)], p, p)) is None
            assert stratum(a, p, x.max_dim) == [
                x.chain(c) for cells in x.cells[1:] for c in cells
                if x.last[c] == p]


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)),
       st.one_of(st.none(), st.integers(0, 3)))
def test_simplex_tree_matches_the_chains(a, max_dim):
    if check_hpa(a).ok:
        _check_tree(a, max_dim)


@pytest.mark.parametrize('name', ['p2', 'f1', 'f3', 'p113', 'a3a3'])
def test_simplex_tree_matches_the_chains_on_fixtures(request, name):
    a = request.getfixturevalue(name)
    for max_dim in (None, 0, 1, 2, 3):
        _check_tree(a, max_dim)


@settings(max_examples=100, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)))
def test_build_realization_refuses_exactly_the_non_cancellative(a):
    if check_hpa(a).ok:
        assert d_squared_degree(build_realization(a)) is None
    else:
        with pytest.raises(NotCancellativeError):
            build_realization(a)


def _facet_corrupted(base, victim, edit):
    """A copy of the complex base whose face table lists edit(faces) for
    the cell victim, deliberately corrupted."""
    rows = [cell_faces(base, c) for c in range(sum(base.counts()))]
    rows[victim] = edit(rows[victim])
    broken = build_realization(base.hpa, max_dim=base.max_dim)
    broken.face = [f for row in rows for f in row]
    broken.at = list(itertools.accumulate(map(len, rows), initial=0))
    return broken


def test_d_squared_degree_finds_a_corrupted_facet(p2, a3a3):
    edits = [lambda fs: [fs[0], fs[2]] + fs[2:],  # facet 1 becomes facet 2
             lambda fs: fs[:-1]]  # the top facet is missing
    for a, k in ((p2, 2), (a3a3, 2), (a3a3, 3)):
        x = build_realization(a)
        assert d_squared_degree(x) is None
        for victim in x.cells[k][:5]:
            for edit in edits:
                broken = _facet_corrupted(x, victim, edit)
                assert d_squared_degree(broken) == k
                assert reference_d_squared_degree(broken) == k


def test_d_squared_degree_finds_swapped_adjacent_faces(p2, a3a3):
    # adjacent faces enter with opposite signs, so swapping them in the
    # face table breaks both the face identities and the multisets
    for a in (p2, a3a3):
        x = build_realization(a)
        fs = x.face
        assert d_squared_degree(x) is None
        for k in range(2, x.max_dim + 1):
            for victim in x.cells[k][:4]:
                for i in range(x.at[victim], x.at[victim] + k):
                    fs[i], fs[i + 1] = fs[i + 1], fs[i]
                    assert d_squared_degree(x) == k
                    assert reference_d_squared_degree(x) == k
                    fs[i], fs[i + 1] = fs[i + 1], fs[i]
        # a 1-cell is checked only through its cofaces: one extra face
        # leaves the identities intact, but not the multisets
        edge = x.cells[1][0]
        broken = _facet_corrupted(x, edge, lambda fs: fs + [x.cells[0][0]])
        assert d_squared_degree(broken) == \
            reference_d_squared_degree(broken) == 2
        assert d_squared_degree(x) is None


@pytest.mark.parametrize('name', ['a3a3', 'p113'])
def test_faces_of_one_sign_swapped_are_cleared_cell_by_cell(request, name):
    # faces i and i + 2 enter with the same sign, so swapping them breaks
    # the face identities, a column at a time, but not the multisets: the
    # cell-by-cell comparison clears the dimension, as the reference does
    x = build_realization(request.getfixturevalue(name))
    fs = x.face
    assert all(identities_hold(fs, x.at, k, *x.cells[k - 1:k + 1])
               for k in range(2, x.max_dim + 1))
    for k in range(3, x.max_dim + 1):
        for victim in (x.cells[k][0], x.cells[k][-1]):
            for i in range(x.at[victim], x.at[victim] + k - 1):
                fs[i], fs[i + 2] = fs[i + 2], fs[i]
                assert not identities_hold(fs, x.at, k,
                                            *x.cells[k - 1:k + 1])
                assert d_squared_degree(x) is None
                assert reference_d_squared_degree(x) is None
                fs[i], fs[i + 2] = fs[i + 2], fs[i]
    assert d_squared_degree(x) is None


@pytest.mark.parametrize('name', ['p2', 'p113', 'a3a3'])
def test_d_squared_degree_finds_a_corrupted_last_cell(request, name):
    # the last k-cell closes every column of dimension k: one face of it
    # replaced by another (k-1)-cell is caught at k
    x = build_realization(request.getfixturevalue(name))
    fs = x.face
    for k in range(2, x.max_dim + 1):
        i = x.at[x.cells[k][-1]] + 1
        good = fs[i]
        fs[i] = next(c for c in x.cells[k - 1] if c != good)
        assert d_squared_degree(x) == reference_d_squared_degree(x) == k
        fs[i] = good
    assert d_squared_degree(x) is None


def test_d_squared_degree_reads_faces_of_the_right_dimension(p2):
    # a face replaced by a vertex cell, whose faces would be read from the
    # first edge's: with the top face of [e_v0 < x < x x'] so replaced the
    # columns agree, and only the check that the faces are (k-1)-cells
    # sends the dimension to the multisets, which differ
    x = build_realization(p2)
    fs = x.face
    for victim in x.cells[2]:
        for i in range(x.at[victim], x.at[victim + 1]):
            good = fs[i]
            for v in x.cells[0]:
                fs[i] = v
                assert d_squared_degree(x) == \
                    reference_d_squared_degree(x) == 2
            fs[i] = good
    assert d_squared_degree(x) is None


@settings(max_examples=150, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)),
       st.one_of(st.none(), st.integers(0, 6)),
       st.sampled_from([RING_Z, RING_Q, ring_fp(2), ring_fp(3), ring_fp(5)]))
def test_realization_homology_matches_the_eager_route(a, max_dim, ring):
    # no cell built: the counts, the cap and the homology of the Morse
    # complex walked on chains agree with the realization and with the
    # eager oracle, graded or not, capped below, at or above the top
    if not check_hpa(a).ok:
        with pytest.raises(NotCancellativeError):
            realization_homology(a, ring, max_dim)
        return
    x = build_realization(a, max_dim=max_dim)
    h, counts, truncated = realization_homology(a, ring, max_dim)
    assert counts == x.counts()
    assert truncated == x.truncated
    m = babson_hersh_matching(a, max_dim)
    assert h == morse_homology(cell_matching(x, morse_pairs(m, x)), ring)


@pytest.mark.parametrize('name', ['p2', 'f1', 'f3', 'p113', 'a3a3',
                                  'ungraded'])
def test_realization_homology_on_fixtures_whole_and_capped(request, name):
    # every cap from 0 to above the top, F1's unshelled interval and the
    # ungraded arrow cell included, against elimination over every cell
    a = request.getfixturevalue(name)
    top = build_realization(a).max_dim
    for max_dim in (None, *range(top + 2)):
        x = build_realization(a, max_dim=max_dim)
        for ring in (RING_Z, RING_Q, ring_fp(2)):
            h, counts, truncated = realization_homology(a, ring, max_dim)
            assert (counts, truncated) == (x.counts(), x.truncated)
            assert h == cellular_homology(x, ring)
