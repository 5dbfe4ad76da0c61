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

from hypothesis import given, settings, strategies as st

from hpa import RING_Z, ring_fp
from hpa.algebra import from_document
from hpa.cli import main
from hpa.invariants import tor_table
from hpa.morse import babson_hersh_matching, morse_homology

from conftest import (RP2_TRIANGLES, bounded_rp2_dsl, exit_path_dsl,
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
        h = morse_homology(babson_hersh_matching(a), ring)
        assert h == simplicial_homology(facets, ring)
        table = tor_table(a, ring)
        for v in vertices:
            for w in vertices:
                assert table.get((v, w), {}) == tor_via_intervals(a, v, w,
                                                                  ring)
