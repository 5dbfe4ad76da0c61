"""Exit-path algebras of simplicial complexes as test inputs.

A simplicial complex K, stratified by its open simplices, has as exit-path
algebra the incidence algebra of its face poset (Gerstenhaber-Schack 1983;
Cibils 1989).  Its realization is the order complex of that poset, the
barycentric subdivision of K, so `hpa homology` must return H(K), and
Tor_i(S_s, S_t) is the reduced homology H~_{i-2} of the open interval
(s, t).  The inputs come from the builders of conftest.py.
"""

import hashlib
import json
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hpa import RING_Q, RING_Z, ring_fp
from hpa.algebra import from_document
from hpa.cli import main
from hpa.invariants import koszul_check, tor_table
from hpa.morse import babson_hersh_matching
from hpa.realization import realization_homology
from hpa.resolution import cellular_resolution

from conftest import (RP2_TRIANGLES, bounded_rp2_dsl, cell_matching,
                      exit_path_dsl, morse_homology, morse_pairs,
                      simplicial_homology, tor_via_intervals)

RP2_Z = {'0': [1, []], '1': [0, [2]], '2': [0, []]}
RP2_F2 = {'0': [1, []], '1': [1, []], '2': [1, []]}


def run_json(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, json.loads(capsys.readouterr().out)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_bounded_rp2_betti_report(capsys, tmp_path):
    # the warnings list runs by vertex declaration order, topA before topB,
    # though the class from bot to topB comes first
    path = write(tmp_path, 'bounded.quiver', bounded_rp2_dsl())
    code = main(['betti', str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        '609ddb0a4724c0ca4c82d2302ae87e4cf38c8ee2fa25b6cfcd9720985393d2c5')
    data = json.loads(out)
    assert data['totals'] == [34, 86, 75, 22]
    message = ('no minimal projective resolution over Z: integral torsion '
               'present')
    assert data['warnings'] == [
        {'degree': 3, 'tail': 'bot', 'head': top, 'torsion': [2],
         'message': message} for top in ('topA', 'topB')]


def test_bounded_rp2_is_a_point_and_passes_morse(capsys, tmp_path):
    # the poset has a bottom, so its order complex is a cone
    path = write(tmp_path, 'bounded.quiver', bounded_rp2_dsl())
    code, data = run_json(capsys, 'homology', path)
    assert code == 0
    assert data['homology'] == {'0': [1, []], **{
        str(k): [0, []] for k in range(1, 5)}}
    code, data = run_json(capsys, 'morse', path)
    assert code == 0
    assert data['quasi_iso']['ok'] is True
    assert data['quasi_iso']['vertex_pairs'] == 34 ** 2


def test_rp2_exit_paths_give_the_homology_of_rp2(capsys, tmp_path):
    for k in (0, 1):
        path = write(tmp_path, f'rp2_sd{k}.quiver',
                     exit_path_dsl(RP2_TRIANGLES, k))
        code, data = run_json(capsys, 'homology', path)
        assert (code, data['homology']) == (0, RP2_Z)
        code, data = run_json(capsys, 'homology', path, '--ring', 'Fp:2')
        assert (code, data['homology']) == (0, RP2_F2)


def test_rp2_exit_paths_pass_resolve_and_morse(capsys, tmp_path):
    for k in (0, 1):
        path = write(tmp_path, f'rp2_sd{k}.quiver',
                     exit_path_dsl(RP2_TRIANGLES, k))
        code, data = run_json(capsys, 'resolve', path)
        assert code == 0
        assert data['d_squared']['ok'] is True
        assert data['contracting_homotopy']['ok'] is True
        code, data = run_json(capsys, 'morse', path)
        assert code == 0
        assert data['d_squared']['ok'] is True
        assert data['quasi_iso']['ok'] is True


def test_rp2_sd1_keeps_its_torsion_whole_and_capped():
    # realization_homology against the eager oracle, which builds every
    # cell and every Babson-Hersh pair; H_1 = Z/2 over Z
    a = from_document(exit_path_dsl(RP2_TRIANGLES, 1))
    assert realization_homology(a)[0][1] == (0, [2])
    for max_dim in (None, 0, 1, 2, 3):
        x = cellular_resolution(a, max_dim=max_dim)
        for ring in (RING_Z, RING_Q, ring_fp(2)):
            h, counts, truncated = realization_homology(a, ring, max_dim)
            assert (counts, truncated) == (x.counts(), x.truncated)
            m = babson_hersh_matching(a, max_dim)
            assert h == morse_homology(
                cell_matching(x, morse_pairs(m, x)), ring)


# the boundary of the tetrahedron (S^2) and the 7-vertex torus, whose
# triangles are {i, i+1, i+3} and {i, i+2, i+3} mod 7
SPHERE = ['012', '013', '023', '123']
TORUS = [tuple(sorted((i + a) % 7 for a in shift))
         for shift in ((0, 1, 3), (0, 2, 3)) for i in range(7)]


@pytest.mark.parametrize('facets, counts, euler', [
    (SPHERE, [14, 36, 24], 2), (TORUS, [42, 126, 84], 0)],
    ids=['sphere', 'torus'])
def test_sphere_and_torus_exit_paths(capsys, tmp_path, facets, counts,
                                     euler):
    # the realization is the barycentric subdivision of K: f0 + f1 + f2,
    # 2 f1 + 6 f2 and 6 f2 cells, K's f-vector being (4, 6, 4) and
    # (7, 21, 14); hpa homology gives H(K) over each ring, and the paper's
    # cellular resolution and its Morse complex pass their checks on
    # spaces with free homology in degree 2
    path = write(tmp_path, 'k.quiver', exit_path_dsl(facets))
    for ring, name in ((RING_Z, 'Z'), (RING_Q, 'Q'), (ring_fp(2), 'Fp:2')):
        code, data = run_json(capsys, 'homology', path, '--ring', name)
        assert (code, data['euler']) == (0, euler)
        assert data['homology'] == {str(k): [rank, tors] for k, (
            rank, tors) in simplicial_homology(facets, ring).items()}
    code, data = run_json(capsys, 'realize', path)
    assert code == 0
    assert (data['counts'], data['euler']) == (counts, euler)
    assert list(map(len, data['cells'])) == counts
    code, data = run_json(capsys, 'resolve', path)
    assert (code, data['generators']) == (0, counts)
    assert data['d_squared']['ok'] and data['contracting_homotopy']['ok']
    code, data = run_json(capsys, 'morse', path)
    assert code == 0 and data['d_squared']['ok'] and data['quasi_iso']['ok']


@pytest.mark.parametrize('facets, k', [
    (SPHERE, 0), (TORUS, 0), (RP2_TRIANGLES, 1)],
    ids=['sphere', 'torus', 'rp2_sd1'])
def test_exit_path_intervals_are_shellable(facets, k):
    # every interval of a face poset is boolean, so koszul_check certifies
    # each nontrivial class by its shellable interval
    a = from_document(exit_path_dsl(facets, k))
    verdict = koszul_check(a)
    assert (verdict.status, verdict.method, verdict.payload) == (
        'koszul-certified', 'shellable-intervals',
        {'intervals': len(a.classes) - len(a.quiver.vertices)})


def klein_bottle(n):
    """Facets of a Klein bottle: the n x n grid of squares, each cut into
    two triangles, its bottom and top sides glued directly and its left and
    right sides with a flip.  n >= 3 keeps it a simplicial complex."""
    def v(i, j):
        return i * n + j % n if i < n else (n - j) % n
    return sorted({tuple(sorted(t)) for i in range(n) for j in range(n)
                   for t in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                             (v(i, j), v(i, j + 1), v(i + 1, j + 1)))})


def test_klein_bottle_grid(capsys, tmp_path):
    # H_1 = Z + Z/2 and H_2 = 0 over Z; ranks 1, 2, 1 over F_2
    for n in (3, 4):
        facets = klein_bottle(n)
        a = from_document(exit_path_dsl(facets))
        for ring in (RING_Z, RING_Q, ring_fp(2)):
            h, counts, _ = realization_homology(a, ring)
            assert h == simplicial_homology(facets, ring)
            assert counts == [6 * n * n, 18 * n * n, 12 * n * n]
    path = write(tmp_path, 'klein.quiver', exit_path_dsl(klein_bottle(3)))
    code, data = run_json(capsys, 'homology', path)
    assert (code, data['homology'], data['euler']) == (
        0, {'0': [1, []], '1': [1, [2]], '2': [0, []]}, 0)
    code, data = run_json(capsys, 'homology', path, '--ring', 'Fp:2')
    assert (code, data['homology']) == (
        0, {'0': [1, []], '1': [2, []], '2': [1, []]})


def test_subdivided_rp2_counts():
    # 31, 181 and 1,081 faces; a class is a pair of comparable faces
    for k, vertices, classes in ((0, 31, 121), (1, 181, 721),
                                 (2, 1081, 4321)):
        a = from_document(exit_path_dsl(RP2_TRIANGLES, k))
        assert (len(a.quiver.vertices), len(a.classes)) == (vertices,
                                                            classes)


@st.composite
def complexes(draw):
    """Facet lists of random simplicial complexes on at most 6 vertices,
    each facet drawn among the subsets of at most 4 vertices."""
    n = draw(st.integers(1, 6))
    subsets = [s for k in range(1, 5) for s in combinations(range(n), k)]
    return draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=10))


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_exit_path_realization_is_the_complex(facets):
    a = from_document(exit_path_dsl(facets))
    vertices = a.quiver.vertices
    for ring in (RING_Z, ring_fp(2)):
        h, _, _ = realization_homology(a, ring)
        assert h == simplicial_homology(facets, ring)
        table = tor_table(a, ring)
        for v in vertices:
            for w in vertices:
                assert table.get((v, w), {}) == tor_via_intervals(a, v, w,
                                                                  ring)
