"""End-to-end acceptance checks.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
scenario.  All comparisons are exact (integer/rational arithmetic); each
test also enforces its own wall-clock budget.
"""

import json
import pathlib
import re
import time

import pytest

from hpa import RING_Q, RING_Z, ring_fp
from hpa.algebra import check_hpa, from_document, tensor
from hpa.invariants import betti_table, koszul_check
from hpa.morse import (Matching, MorseComplex, babson_hersh_matching,
                       check_acyclic, check_internal, check_linear,
                       check_minimal, load_matching)
from hpa.realization import euler_characteristic
from hpa.resolution import (cellular_resolution, check_resolution,
                            verify_d_squared)
from hpa.toric import WeightData, bondal_ruan_hpa, check_directable

from conftest import (bhk_algebra, cellular_homology, free_algebra,
                      linear_quiver, tor_via_intervals, tor_via_resolution)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / 'fixtures'


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, \
            f"test exceeded its {self.seconds}s budget ({elapsed:.1f}s)"


def _label_monomial(label, nvars):
    base = label.split('@')[0]
    exps = [0] * nvars
    for factor in base.split('*'):
        m = re.fullmatch(r'x(\d+)(?:\^(\d+))?', factor)
        exps[int(m.group(1)) - 1] += int(m.group(2) or 1)
    return tuple(exps)


def _monomial_chain(a, cell, nvars):
    """A cell, given as its chain, as (tail, chain of total monomials),
    label-derived."""
    chain = []
    for cid in cell[1:]:
        total = [0] * nvars
        for lab in a.cls(cid).rep.labels:
            mono = _label_monomial(lab, nvars)
            total = [s + t for s, t in zip(total, mono)]
        chain.append(tuple(total))
    return (a.tail(cell[0]), tuple(chain))


def test_01_p2_torus_homology(p2):
    budget = Budget(10)
    assert check_hpa(p2).ok
    x = cellular_resolution(p2)
    h = cellular_homology(x, RING_Z)
    assert h[0] == (1, [])
    assert h[1] == (2, [])
    assert h[2] == (1, [])
    assert all(h[k] == (0, []) for k in h if k > 2)
    assert euler_characteristic(x.counts()) == 0
    budget.check()


def test_02_f3_fixture_matching(f3):
    budget = Budget(30)
    raw = json.loads((FIXTURES / 'f3_matching.json').read_text())
    assert len(raw['pairs']) == 19 + 11
    x = cellular_resolution(f3)
    m = load_matching(FIXTURES / 'f3_matching.json', f3)
    assert check_internal(m).ok
    assert check_acyclic(m).ok
    mc = MorseComplex(m)
    assert mc.counts() == [4, 9, 6, 1]
    assert 4 - 9 + 6 - 1 == 0 and euler_characteristic(x.counts()) == 0

    # the critical-cell list, cells written as (tail, monomial chain)
    crit2 = {_monomial_chain(f3, c, 4) for c in mc.generators(2)}
    assert crit2 == {
        ('d(0,0)', ((0, 0, 1, 0), (2, 1, 1, 0))),
        ('d(0,0)', ((0, 0, 1, 0), (1, 1, 2, 0))),
        ('d(0,0)', ((0, 0, 0, 1), (1, 0, 0, 1))),
        ('d(0,0)', ((0, 0, 0, 1), (0, 0, 1, 1))),
        ('d(1,0)', ((1, 1, 1, 0), (2, 1, 1, 0))),
        ('d(1,0)', ((0, 1, 2, 0), (1, 1, 2, 0))),
    }
    crit3 = {_monomial_chain(f3, c, 4) for c in mc.generators(3)}
    assert crit3 == {
        ('d(0,0)', ((0, 0, 1, 0), (1, 1, 2, 0), (2, 1, 2, 0))),
    }
    assert len(mc.generators(0)) == len(f3.quiver.vertices)
    arrows = {_monomial_chain(f3, c, 4) for c in mc.generators(1)}
    assert arrows == {(ar.tail, (_label_monomial(ar.label, 4),))
                     for ar in f3.quiver.arrows}
    budget.check()


def test_03_contracting_homotopy(p2, f3, p113, a3a3):
    budget = Budget(60)
    for a in (p2, f3, p113, a3a3):
        c = cellular_resolution(a)
        _, rep = check_resolution(c)
        assert rep.ok, rep.witnesses[:1]
    budget.check()


def test_04_tor_oracle_triangle(p2, f3, p113, a3a3):
    budget = Budget(60)
    for a in (p2, f3, p113, a3a3):
        c = cellular_resolution(a)
        mc = MorseComplex(babson_hersh_matching(a))
        for ring in (RING_Z, ring_fp(2)):
            for v in a.quiver.vertices:
                for w in a.quiver.vertices:
                    ti = tor_via_intervals(a, v, w, ring=ring)
                    tc = tor_via_resolution(a, c, v, w, ring=ring)
                    tm = tor_via_resolution(a, mc, v, w, ring=ring)
                    assert ti == tc == tm, (v, w, ring, ti, tc, tm)
    budget.check()


def test_05_minimality_and_betti(p2):
    budget = Budget(30)
    mc = MorseComplex(babson_hersh_matching(p2))
    assert check_minimal(mc).ok
    assert mc.counts() == [3, 6, 3]
    assert betti_table(p2).totals() == [3, 6, 3]
    # degree-2 generators are exactly the classes of the relation groups
    crit_tops = {cell[-1] for cell in mc.generators(2)}
    rel_classes = {p2.word_class(group[0]) for group in p2.relations.groups}
    assert len(p2.relations.groups) == 3
    assert crit_tops == rel_classes
    budget.check()


def test_06_koszul_verdicts():
    budget = Budget(30)
    beilinson = bondal_ruan_hpa(WeightData([[1, 1, 1]]))
    verdict = koszul_check(beilinson)
    assert verdict.status == 'koszul-certified'
    assert verdict.method == 'directable'
    assert verdict.payload == {'variable_order': ['x1', 'x2', 'x3']}

    f1 = bondal_ruan_hpa(WeightData([[1, 0, 1, 1], [0, 1, 0, 1]]))
    assert check_directable(f1) is None
    verdict = koszul_check(f1)
    assert verdict.status == 'not-koszul'
    assert verdict.method == 'minimal-nonlinear'
    assert sum(verdict.payload['coefficient_lengths']) >= 2
    # the witness complex really is minimal and fails linearity
    mc = MorseComplex(babson_hersh_matching(f1))
    assert check_minimal(mc).ok
    assert not check_linear(mc).ok
    budget.check()


def _degree_profile(a):
    """Isomorphism invariants: sorted in/out degrees and arrow multiplicities
    between vertex pairs, plus relation and class counts."""
    outs = {v: 0 for v in a.quiver.vertices}
    ins = {v: 0 for v in a.quiver.vertices}
    mult = {}
    for ar in a.quiver.arrows:
        outs[ar.tail] += 1
        ins[ar.head] += 1
        mult[ar.tail, ar.head] = mult.get((ar.tail, ar.head), 0) + 1
    return (sorted(zip(outs.values(), ins.values())),
            sorted(mult.values()),
            len(a.relations.groups),
            len(a.classes))


def test_07_toric_generation(p2, p113):
    budget = Budget(10)
    beilinson = bondal_ruan_hpa(WeightData([[1, 1, 1]]))
    assert len(beilinson.quiver.vertices) == 3
    assert len(beilinson.quiver.arrows) == 6
    assert len(beilinson.relations.groups) == 3
    assert _degree_profile(beilinson) == _degree_profile(p2)
    assert cellular_resolution(beilinson).counts() == \
        cellular_resolution(p2).counts()

    wps = bondal_ruan_hpa(WeightData([[1, 1, 3]]))
    assert len(wps.quiver.vertices) == 5
    assert len(wps.quiver.arrows) == 10
    # x, y between consecutive degrees; z jumps three steps
    idx = {v: i for i, v in enumerate(wps.quiver.vertices)}
    steps = sorted((idx[ar.tail], idx[ar.head]) for ar in wps.quiver.arrows)
    assert steps == sorted([(i, i + 1) for i in range(4)] * 2
                           + [(0, 3), (1, 4)])
    assert _degree_profile(wps) == _degree_profile(p113)
    budget.check()


def test_08_euler_characteristic_zero(p2, f3, p113):
    budget = Budget(10)
    for a in (p2, f3, p113):
        assert euler_characteristic(cellular_resolution(a).counts()) == 0
    budget.check()


def _q_betti(a):
    x = cellular_resolution(a)
    h = cellular_homology(x, RING_Q)
    top = max(h) if h else 0
    return [h.get(k, (0, []))[0] for k in range(top + 1)]


def _convolve(b1, b2):
    out = [0] * (len(b1) + len(b2) - 1)
    for i, u in enumerate(b1):
        for j, v in enumerate(b2):
            out[i + j] += u * v
    return out


def _trim(b):
    while b and b[-1] == 0:
        b = b[:-1]
    return b


def test_09_kunneth(p2):
    budget = Budget(60)
    a2 = free_algebra(linear_quiver(2))
    a3 = free_algebra(linear_quiver(3, vertex_prefix='w', arrow_prefix='b'))
    assert _trim(_q_betti(tensor(a2, a3))) == \
        _trim(_convolve(_q_betti(a2), _q_betti(a3)))
    assert _trim(_q_betti(tensor(p2, a2))) == \
        _trim(_convolve(_q_betti(p2), _q_betti(a2)))
    budget.check()


def _tor_convolution(s, t):
    """Kuenneth without Tor term: the ranks of Tor^{A (x) B} at one pair of
    product vertices from those of the factors at the matching pairs."""
    out = {}
    for i, (r, _) in s.items():
        for j, (u, _) in t.items():
            out[i + j] = out.get(i + j, 0) + r * u
    return {n: (r, []) for n, r in sorted(out.items()) if r}


@pytest.mark.parametrize('left, right', [('f1', 'a2'), ('p2', 'f1'),
                                         ('p113', 'a2'), ('f3', 'a2')])
def test_09_kunneth_per_vertex_pair(request, left, right):
    # Tor of a tensor product over Q is the convolution of the factors'
    # Tor, at every pair ((v, v'), (w, w')) of product vertices; F1 has an
    # interval whose lexicographic order is not a shelling, so the
    # elimination branch of tor_table is compared too.  Over Z the factors'
    # Tor is free, so the Tor term of the Kuenneth formula vanishes and the
    # convolution holds exactly there too
    from hpa.invariants import tor_table
    from hpa.realization import lex_shelling
    budget = Budget(60)
    a, b = [free_algebra(linear_quiver(2)) if name == 'a2' else
            request.getfixturevalue(name) for name in (left, right)]
    t = tensor(a, b)
    assert (left == 'f1' or right == 'f1') == any(
        lex_shelling(t, p) is None for p in range(len(t.classes)))
    pair = dict(zip(t.quiver.vertices, [(v, u) for v in a.quiver.vertices
                                        for u in b.quiver.vertices]))
    for ring in (RING_Q, RING_Z):
        ta, tb, tt = tor_table(a, ring), tor_table(b, ring), \
            tor_table(t, ring)
        assert len(tt) == len(ta) * len(tb)
        assert all(tors == [] for tor in (*ta.values(), *tb.values())
                   for _, tors in tor.values())
        for (v, w), tor in tt.items():
            (va, vb), (wa, wb) = pair[v], pair[w]
            assert tor == _tor_convolution(ta[va, wa], tb[vb, wb]), ring
    budget.check()


class _SignFlip:
    """Wrap a complex, negating one term of one generator's differential."""

    def __init__(self, c, cell):
        self._c = c
        self._cell = cell
        self.hpa = c.hpa
        self.top = c.top
        self.units = c.units
        self.chain = c.chain

    def generators(self, k):
        return self._c.generators(k)

    def terms(self, cell):
        ts = list(self._c.terms(cell))
        if cell == self._cell:
            s, l, f, r = ts[0]
            ts[0] = (-s, l, f, r)
        return ts


def test_10_mutation_robustness(p2):
    budget = Budget(5)
    c = cellular_resolution(p2)
    assert verify_d_squared(c).ok
    flipped = _SignFlip(c, c.cells[2][0])
    rep = verify_d_squared(flipped)
    assert not rep.ok
    assert any(cell == c.chain(c.cells[2][0]) for cell, _ in rep.witnesses)

    edge = c.chain(c.cells[1][0])
    bad = Matching(p2, [(edge, edge[:1])])
    internal = check_internal(bad)
    assert not internal.ok
    reasons = {w[0] for w in internal.witnesses}
    assert 'vertex cell matched' in reasons
    budget.check()


def _cli_json(capsys, *argv):
    from hpa.cli import main
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize('name, factors', [
    # the paper's Berglund-Huebsch-Krawitz example: d = 8, charges (2, 2),
    # one A_3 factor per charge, as bhk_algebra builds it
    ('bhk_8_2_2', [(3, 'u0_', 's0_'), (3, 'u1_', 's1_')]),
    ('a2_a3', [(2, 'v', 'a'), (3, 'w', 'b')]),
])
def test_11_tensor_of_linear_quivers_is_kunneth(capsys, tmp_path, name,
                                                factors):
    # the product is emitted by `hpa tensor --emit-quiver`; its Betti
    # totals and its minimal, linear Morse complex are the convolution of
    # the factors' tables [k + 1, k] (Kuenneth)
    from hpa.dsl import emit_quiver
    budget = Budget(30)
    paths, tables = [], []
    for k, vertex_prefix, arrow_prefix in factors:
        path = tmp_path / f'{vertex_prefix}{k}.quiver'
        path.write_text(emit_quiver(linear_quiver(k, vertex_prefix,
                                                  arrow_prefix)))
        paths.append(str(path))
        tables.append(_cli_json(capsys, 'betti', str(path))['totals'])
        assert tables[-1] == [k + 1, k]
    from hpa.cli import main
    product = tmp_path / f'{name}.quiver'
    assert main(['tensor', *paths, '--emit-quiver',
                 '--out', str(product)]) == 0
    expect = _convolve(*tables)
    assert expect == {'bhk_8_2_2': [16, 24, 9], 'a2_a3': [12, 17, 6]}[name]

    betti = _cli_json(capsys, 'betti', str(product))
    assert betti['totals'] == expect and betti['warnings'] == []
    if name == 'bhk_8_2_2':
        assert betti_table(bhk_algebra(8, [2, 2])).totals() == expect
    assert _cli_json(capsys, 'koszul', str(product))['status'] == \
        'koszul-certified'
    morse = _cli_json(capsys, 'morse', str(product))
    assert morse['criticals'] == expect
    assert morse['minimal'] is True and morse['linear'] is True
    assert morse['quasi_iso']['ok'] is True
    budget.check()
