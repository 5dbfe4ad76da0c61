import json
import os
import pathlib
import re
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from hpa import FP_LIMIT, parse_ring
from hpa.algebra import check_hpa
from hpa.cli import main, _header, _load, _schema
from hpa.dsl import emit_quiver
from hpa.morse import (MorseComplex, babson_hersh_matching,
                       greedy_internal_matching, load_matching)
from hpa.resolution import cellular_resolution

from conftest import (BENCHMARK_INPUTS, UNGRADED, Mutant, algebras,
                      cell_names, cell_of, cellular_homology, free_algebra,
                      linear_quiver, matching_to_json, morse_pairs,
                      unshelled_classes)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / 'fixtures'
P2 = str(FIXTURES / 'p2.quiver')
F1 = str(FIXTURES / 'f1.quiver')
F3 = str(FIXTURES / 'f3.quiver')


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_check_ok(capsys):
    code, data = run_json(capsys, 'check', P2)
    assert code == 0
    assert data['ok'] is True
    assert data['header']['command'] == 'check'


def test_check_violation(capsys, tmp_path):
    doc = ("vertices: u m v\n"
           "arrows:\n  a: u -> m\n  b: m -> v\n  c: m -> v\n"
           "relations:\n  a b = a c\n")
    p = tmp_path / 'bad.quiver'
    p.write_text(doc)
    code, data = run_json(capsys, 'check', str(p))
    assert code == 1
    v = data['report']['violations'][0]
    assert v['side'] == 'left' and v['r'] == ['a']


def test_missing_file_is_usage_error(capsys):
    code = main(['check', '/does/not/exist.quiver'])
    assert code == 2
    assert 'error:' in capsys.readouterr().err


@pytest.mark.parametrize('argv', [
    ['check', '{}'],
    ['morse', P2, '--matching', '{}'],
    ['toric', '--weights', '{}'],
])
def test_a_file_that_is_not_utf8_is_usage_error(capsys, tmp_path, argv):
    p = tmp_path / 'latin1'
    p.write_bytes(b'vertices: a\xff\n')
    code = main([arg.format(p) for arg in argv])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 11: "
        "invalid start byte\n")


def test_parse_error_is_usage_error(capsys, tmp_path):
    p = tmp_path / 'mangled.quiver'
    p.write_text('vertices v0\n')
    code = main(['check', str(p)])
    assert code == 2


def test_cyclic_quiver_is_input_error(capsys, tmp_path):
    p = tmp_path / 'cyclic.quiver'
    p.write_text("vertices: a b\narrows:\n  x: a -> b\n  y: b -> a\n")
    code = main(['check', str(p)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 3: quiver has an oriented cycle: a -> b -> a\n")


def test_long_cyclic_quiver_is_input_error(capsys, tmp_path):
    # a path of 1,500 vertices closed by one back arrow: the cycle search
    # keeps its own stack, so the cycle is named, not a RecursionError
    n = 1500
    vs = [f"v{i}" for i in range(n)]
    p = tmp_path / 'long_cycle.quiver'
    p.write_text(f"vertices: {' '.join(vs)}\narrows:\n" + ''.join(
        f"  x{i}: {vs[i]} -> {vs[(i + 1) % n]}\n" for i in range(n)))
    assert main(['check', str(p)]) == 2
    assert capsys.readouterr().err == (
        "error: line 3: quiver has an oriented cycle: " +
        ' -> '.join(vs + vs[:1]) + "\n")


def test_cycle_search_backtracks_from_a_dead_end(capsys, tmp_path):
    # from a the search first walks to the sink b and back, then finds
    # a -> c -> a, named at the line of its first declared arrow, y
    p = tmp_path / 'cyclic.quiver'
    p.write_text("vertices: a b c\narrows:\n  x: a -> b\n  y: a -> c\n"
                 "  z: c -> a\n")
    assert main(['check', str(p)]) == 2
    assert capsys.readouterr().err == (
        "error: line 4: quiver has an oriented cycle: a -> c -> a\n")


def test_bad_ring_rejected():
    with pytest.raises(SystemExit) as e:
        main(['homology', P2, '--ring', 'F4'])
    assert e.value.code == 2


_MALFORMED_RINGS = {  # int() would read several of these
    'empty': 'Fp:', 'letters': 'Fp:abc', 'underscore': 'Fp:1_009',
    'arabic-indic': 'Fp:\u0663', 'short-arabic-indic': 'F\u0663',
    'plus-sign': 'Fp:+7', 'inner-space': 'Fp: 7', 'bare-F': 'F'}


@pytest.mark.parametrize('ring, reason', [
    (f'Fp:{FP_LIMIT + 2}',
     f'{FP_LIMIT + 2} is too large (p must be below {FP_LIMIT})'),
    ('F4', '4 is not prime'),
] + [(r, f'unknown ring {r!r} (want Z, Q or Fp:<p>)')
     for r in _MALFORMED_RINGS.values()],
    ids=['too-large', 'not-prime'] + list(_MALFORMED_RINGS))
def test_bad_ring_prints_its_reason(capsys, ring, reason):
    with pytest.raises(SystemExit) as e:
        main(['homology', P2, '--ring', ring])
    assert e.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f'hpa homology: error: argument --ring: {reason}')


def test_large_prime_ring(capsys):
    # a prime near 10^18 is accepted at once; one at or above hpa.FP_LIMIT,
    # where the primality test stops being exact, is a usage error
    code, data = run_json(capsys, 'homology', P2,
                          '--ring', 'Fp:1000000000000000003')
    assert code == 0 and data['ring'] == 'Fp:1000000000000000003'
    with pytest.raises(SystemExit) as e:
        main(['homology', P2, '--ring', f'Fp:{FP_LIMIT + 2}'])
    assert e.value.code == 2


def test_homology_report(capsys):
    code, data = run_json(capsys, 'homology', P2, '--ring', 'Z')
    assert code == 0
    assert data['homology'] == {'0': [1, []], '1': [2, []], '2': [1, []]}
    assert data['euler'] == 0


def test_realize_truncation(capsys):
    code, data = run_json(capsys, 'realize', P2, '--max-dim', '1')
    assert code == 0
    assert data['counts'] == [3, 12]
    assert data['truncated'] is True


def _realize_bytes(a, max_dim=None):
    """What hpa realize writes: json.dumps of the report, its cells named
    by the oracle on the cellular resolution."""
    x = cellular_resolution(a, max_dim=max_dim)
    counts = x.counts()
    report = {'header': _header('realize'), 'cells': cell_names(x),
              'counts': counts, 'truncated': x.truncated,
              'euler': sum((-1) ** k * n for k, n in enumerate(counts))}
    return json.dumps(report, indent=1, sort_keys=True) + '\n'


# arrow labels and a vertex name that JSON escapes, and a quiver with no
# vertex
DOCUMENTS = {'escaped': 'vertices: u v\u00e9 w\narrows:\n'
                        '  \u00e9: u -> v\u00e9\n  "q: u -> v\u00e9\n'
                        '  a\\b: v\u00e9 -> w\n',
             'empty': 'vertices:\n'}


@pytest.mark.parametrize('path', [
    P2, F1, F3, str(FIXTURES / 'p113.quiver'),
    *(str(p) for p in sorted(BENCHMARK_INPUTS.glob('*.quiver'))), *DOCUMENTS],
    ids=lambda p: pathlib.Path(p).stem)
def test_realize_writes_the_bytes_of_json_dump(capsys, tmp_path, path):
    # whole and capped at 0 to 3, on stdout and in a file; the names that
    # realization.cell_names gives by default are the oracle's
    from hpa import realization
    escaped = path == 'escaped'
    if path in DOCUMENTS:
        text, path = DOCUMENTS[path], tmp_path / f'{path}.quiver'
        path.write_text(text, encoding='utf-8')
    a, out = _load(path), tmp_path / 'realize.json'
    for max_dim in (None, 0, 1, 2, 3):
        cap = [] if max_dim is None else ['--max-dim', str(max_dim)]
        want, x = _realize_bytes(a, max_dim), cellular_resolution(a, max_dim)
        assert realization.cell_names(a, max_dim) == (cell_names(x),
                                                     x.truncated)
        assert run(capsys, 'realize', str(path), *cap) == (0, want)
        assert main(['realize', str(path), *cap, '--out', str(out)]) == 0
        assert out.read_bytes() == want.encode()
    if escaped:
        assert r'"[e_u < \u00e9]"' in want and r'"[e_u < \"q]"' in want
        assert r'"[e_v\u00e9 < a\\b]"' in want


@pytest.mark.parametrize('chunk', [1, 2, 7])
def test_realize_bytes_do_not_depend_on_the_chunk_size(monkeypatch, capsys,
                                                       tmp_path, chunk):
    # the seams between chunks, which no dimension of the inputs above
    # reaches at the default size, on names with and without escapes
    from hpa import cli
    escaped = tmp_path / 'escaped.quiver'
    escaped.write_text(DOCUMENTS['escaped'], encoding='utf-8')
    monkeypatch.setattr(cli, '_CHUNK', chunk)
    for path in (P2, F3, escaped):
        want = _realize_bytes(_load(path))
        assert run(capsys, 'realize', str(path)) == (0, want)


@settings(max_examples=60, deadline=None)
@given(st.one_of(algebras(), algebras(with_relations=True)),
       st.one_of(st.none(), st.integers(0, 3)))
def test_realize_writes_the_bytes_of_json_dump_on_random_algebras(
        a, max_dim):
    # a non-cancellative algebra exits 1 and writes nothing
    import tempfile
    cap = [] if max_dim is None else ['--max-dim', str(max_dim)]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = pathlib.Path(tmp, 'a.quiver'), pathlib.Path(tmp, 'r.json')
        path.write_text(emit_quiver(a.quiver, a.relations))
        code = main(['realize', str(path), *cap, '--out', str(out)])
        if check_hpa(a).ok:
            assert code == 0
            assert out.read_text() == _realize_bytes(a, max_dim)
        else:
            assert code == 1 and not out.exists()


def test_realize_builds_no_cell_complex(monkeypatch, capsys):
    from hpa import resolution
    want = {p: _realize_bytes(_load(p)) for p in (P2, F1, F3)}

    def refuse(*args, **kwargs):
        raise AssertionError('a cell complex was built')
    monkeypatch.setattr(resolution.BimoduleComplex, '__init__', refuse)
    for path, report in want.items():
        assert run(capsys, 'realize', path) == (0, report)


def test_resolve_report(capsys):
    code, data = run_json(capsys, 'resolve', P2)
    assert code == 0
    assert data['d_squared']['ok'] is True
    assert data['contracting_homotopy']['ok'] is True


def test_morse_fixture_matching(capsys):
    code, data = run_json(capsys, 'morse', F3,
                          '--matching', str(FIXTURES / 'f3_matching.json'))
    assert code == 0
    assert data['criticals'] == [4, 9, 6, 1]
    assert data['matching'] == {'strategy': 'fixture', 'pairs': 26}
    assert data['quasi_iso']['ok'] is True
    assert data['minimal'] is True


@pytest.mark.parametrize('path, max_dim', [
    (P2, '0'), (P2, '1'), (P2, '2'), (str(FIXTURES / 'p113.quiver'), '2')],
    ids=['0', '1', '2', 'p113-2'])
def test_morse_max_dim_with_the_default_matching(capsys, path, max_dim):
    # the capped complex drops Babson-Hersh pairs whose top lies above it
    code, bh = run_json(capsys, 'morse', path, '--max-dim', max_dim)
    assert code == 0
    _, greedy = run_json(capsys, 'morse', path, '--max-dim', max_dim,
                         '--matching', 'greedy')
    assert bh['criticals'] == greedy['criticals']
    assert bh['quasi_iso'] == greedy['quasi_iso']
    assert bh['quasi_iso']['ok'] is True
    # minimal and linear describe the algebra: null on a truncated complex
    # (P^2 capped at 1 and P(1,1,3) at 2 would look non-linear), and the
    # full run's values when the cap cuts nothing off
    _, full = run_json(capsys, 'morse', path)
    assert full['minimal'] is True and full['linear'] is True
    truncated = cellular_resolution(_load(path), int(max_dim)).truncated
    assert truncated == (path != P2 or max_dim != '2')
    for got in (bh, greedy):
        assert (got['minimal'], got['linear']) == \
            ((None, None) if truncated else (True, True))


A2 = "vertices: v0 v1 v2\narrows:\n  a: v0 -> v1\n  b: v1 -> v2\n"


@pytest.mark.parametrize('name', ['a2', 'f1.quiver', 'p113.quiver'])
def test_morse_compares_only_nonzero_groups(capsys, tmp_path, name):
    # a vertex pair whose Morse complex ends in fewer degrees than the
    # unreduced one still has the same Tor
    path = FIXTURES / name
    if name == 'a2':
        path = tmp_path / 'a2.quiver'
        path.write_text(A2)
    code, data = run_json(capsys, 'morse', str(path))
    assert code == 0
    assert data['quasi_iso']['ok'] is True
    assert data['d_squared']['ok'] is True


def test_morse_catches_a_wrong_complex(monkeypatch, capsys):
    from hpa import morse
    real = morse.MorseComplex

    def drop_a_critical_cell(m):
        mc = real(m)
        mc.cells[-1].pop()  # a top cell, so no boundary refers to it
        return mc
    monkeypatch.setattr(morse, 'MorseComplex', drop_a_critical_cell)
    code, data = run_json(capsys, 'morse', P2)
    assert code == 1
    assert data['quasi_iso']['ok'] is False
    assert data['d_squared']['ok'] is True


def test_morse_rejects_non_internal(capsys, tmp_path):
    bad = {'pairs': [{'top': {'tail': 'v0', 'chain': [[], ['x']]},
                      'bottom': {'tail': 'v0', 'chain': [[]]}}]}
    p = tmp_path / 'bad_matching.json'
    p.write_text(json.dumps(bad))
    code, data = run_json(capsys, 'morse', P2, '--matching', str(p))
    assert code == 1
    reasons = {w[0] for w in data['internal']['witnesses']}
    assert 'vertex cell matched' in reasons
    assert data['criticals'] is None


def test_morse_refusal_lists_witnesses_by_the_chains_of_the_tops(capsys,
                                                               tmp_path):
    # the tops [e_v0 < x], [e_v0 < y] and [e_v0 < x < x y'] run in that
    # order by (dimension, chain), but the witnesses follow their chains,
    # and the cycle search starts from the least bottom
    def cell(tail, *chain):
        return {'tail': tail, 'chain': [[], *chain]}
    doc = {'pairs': [
        {'top': cell('v0', ['y']), 'bottom': cell('v1')},
        {'top': cell('v0', ['x'], ['x', "y'"]), 'bottom': cell('v1', ["y'"])},
        {'top': cell('v0', ['x']), 'bottom': cell('v0')}]}
    p = tmp_path / 'matching.json'
    p.write_text(json.dumps(doc))
    m = load_matching(p, _load(P2))
    tops = [t for t, _ in m.pairs]
    assert sorted(tops, key=lambda c: (len(c), c)) != sorted(tops)
    code, data = run_json(capsys, 'morse', P2, '--matching', str(p))
    assert code == 1
    assert data['matching'] == {'strategy': 'fixture', 'pairs': 3}
    assert data['internal']['witnesses'] == [
        ['arrow cell matched', '[e_v0 < x]'],
        ['vertex cell matched', '[e_v0]'],
        ['pair changes stratum', '[e_v0 < x] ~ [e_v0]'],
        ['arrow cell matched', "[e_v1 < y']"],
        ['pair changes stratum', "[e_v0 < x < x y'] ~ [e_v1 < y']"],
        ['arrow cell matched', '[e_v0 < y]'],
        ['vertex cell matched', '[e_v1]'],
        ['pair changes stratum', '[e_v0 < y] ~ [e_v1]']]
    assert data['acyclic'] == {'ok': False, 'cycle': [
        '[e_v0]', '[e_v0 < x]', '[e_v1]', '[e_v0 < y]', '[e_v0]']}
    assert data['criticals'] is None


CELL = {'tail': 'v0', 'chain': [[]]}


@pytest.mark.parametrize('doc', [
    {},
    {'pairs': [{'bottom': CELL}]},
    {'pairs': [{'top': CELL}]},
    {'pairs': [{'top': {'chain': [[], ['x']]}, 'bottom': CELL}]},
    {'pairs': [{'top': {'tail': 'v0'}, 'bottom': CELL}]},
    {'pairs': 5},
    {'pairs': [5]},
    {'pairs': [{'top': 5, 'bottom': CELL}]},
    {'pairs': [{'top': {'tail': 'v0', 'chain': [[], 5]}, 'bottom': CELL}]},
    {'pairs': [{'top': {'tail': 'v0', 'chain': [[], [1]]}, 'bottom': CELL}]},
    {'pairs': [{'top': {'tail': 'v0', 'chain': 'x'}, 'bottom': CELL}]},
    {'pairs': [{'top': {'tail': ['v0'], 'chain': [[]]}, 'bottom': CELL}]},
    {'pairs': [{'top': {'tail': 'v0', 'chain': []}, 'bottom': CELL}]},
])
def test_morse_refuses_malformed_matching_file(capsys, tmp_path, doc):
    p = tmp_path / 'bad_matching.json'
    p.write_text(json.dumps(doc))
    code = main(['morse', P2, '--matching', str(p)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ''
    assert re.fullmatch(
        r"error: matching file: (missing '\w+'|'\w+' must be [\w ]+)\n", err)


@pytest.mark.parametrize('top, message', [
    ({'tail': 'v0', 'chain': [[], ['q']]}, "unknown arrow label 'q'"),
    ({'tail': 'v9', 'chain': [[]]}, "unknown vertex 'v9'"),
    ({'tail': 'v0', 'chain': [[], ['x'], ['x']]},
     'not a cell of the realization'),
])
def test_morse_refuses_a_matching_file_naming_no_cell(capsys, tmp_path, top,
                                                      message):
    # well formed, but not a cell of the algebra: a mathematical failure
    p = tmp_path / 'bad_matching.json'
    p.write_text(json.dumps({'pairs': [{'top': top, 'bottom': CELL}]}))
    assert main(['morse', P2, '--matching', str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == '' and message in err and err.count('\n') == 1


@pytest.mark.parametrize('chain, written', [
    ([['x1@d(0,0)'], ['x1@d(0,0)']], '[x1@d(0,0) < x1@d(0,0)]'),
    ([['x1@d(0,0)'], ['x3@d(0,0)']], '[x1@d(0,0) < x3@d(0,0)]'),
], ids=['not-increasing', 'not-divided'])
def test_a_matching_file_names_a_refused_cell_as_written(capsys, tmp_path,
                                                         chain, written):
    # a chain that repeats its first entry, and one that its first entry
    # does not divide, are refused in the words of the file, with no class
    # id in the message
    p = tmp_path / 'bad_matching.json'
    p.write_text(json.dumps({'pairs': [{
        'top': {'tail': 'd(0,0)', 'chain': chain},
        'bottom': {'tail': 'd(0,0)', 'chain': [[]]}}]}))
    assert main(['morse', F3, '--matching', str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ''
    assert err == ('error: not a cell of the realization: '
                   f'{written} from d(0,0)\n')


def test_betti_csv(capsys, tmp_path):
    out = tmp_path / 'betti.csv'
    code = main(['betti', P2, '--out', str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == 'degree,tail,head,rank'
    assert len(lines) == 7


def test_out_files_are_utf8_whatever_the_locale(tmp_path):
    # under the C locale open() defaults to ASCII; every --out file is
    # UTF-8, as the inputs are, and reads back as what it was written from
    from hpa.algebra import tensor
    from hpa.dsl import emit_quiver
    from hpa.invariants import betti_table
    q = tmp_path / 'q.quiver'
    q.write_text('vertices: \u00e0 b\narrows:\n  \u00e9: \u00e0 -> b\n',
                 encoding='utf-8')
    env = dict(os.environ, LC_ALL='C', PYTHONCOERCECLOCALE='0',
               PYTHONUTF8='0', PYTHONPATH=str(FIXTURES.parent / 'src'))
    a = _load(str(q))
    for argv, name, want in [
            (['tensor', q, q, '--emit-quiver'], 't.quiver',
             emit_quiver(tensor(a, a).quiver, tensor(a, a).relations)),
            (['betti', q], 'b.csv', betti_table(a).to_csv())]:
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, '-m', 'hpa.cli', *map(str, argv), '--out',
             str(out)], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == want.encode('utf-8')
        assert '\u00e9' in want or '\u00e0' in want
    t = _load(str(tmp_path / 't.quiver'))
    assert [ar.label for ar in t.quiver.arrows] == [
        ar.label for ar in tensor(a, a).quiver.arrows]


def test_dsl_on_stdout_is_utf8_whatever_the_locale(tmp_path):
    # under the C locale stdout encodes ASCII; the DSL text written there is
    # the bytes of the --out file, and the exit code 0
    q = tmp_path / 'u.quiver'
    q.write_text('vertices: a b\narrows:\n  \u00e9: a -> b\n',
                 encoding='utf-8')
    env = dict(os.environ, LC_ALL='C', PYTHONCOERCECLOCALE='0',
               PYTHONUTF8='0', PYTHONPATH=str(FIXTURES.parent / 'src'))
    out = tmp_path / 't.quiver'
    argv = [sys.executable, '-m', 'hpa.cli', 'tensor', str(q), str(q),
            '--emit-quiver']
    printed = subprocess.run(argv, env=env, capture_output=True,
                             timeout=60)
    assert printed.returncode == 0, printed.stderr
    assert subprocess.run(argv + ['--out', str(out)], env=env,
                          timeout=60).returncode == 0
    assert printed.stdout == out.read_bytes()
    assert '\u00e9|a'.encode('utf-8') in printed.stdout


def test_koszul_reports(capsys):
    code, data = run_json(capsys, 'koszul', F1)
    assert code == 0
    assert data['status'] == 'not-koszul'
    assert data['method'] == 'minimal-nonlinear'


def test_toric_emits_beilinson(capsys):
    code, out = run(capsys, 'toric', '--weights', '[[1,1,1]]',
                    '--bondal-ruan')
    assert code == 0
    from hpa.algebra import from_document
    a = from_document(out)
    assert len(a.quiver.vertices) == 3
    assert len(a.quiver.arrows) == 6
    assert len(a.relations.groups) == 3


def test_toric_degrees_inline(capsys):
    _, via_degrees = run(capsys, 'toric', '--weights', '[[1,1,1]]',
                         '--degrees', '[0,1,2]')
    _, via_br = run(capsys, 'toric', '--weights', '[[1,1,1]]',
                    '--bondal-ruan')
    assert via_degrees == via_br


def test_toric_report_mode(capsys):
    code, data = run_json(capsys, 'toric', '--weights',
                          str(FIXTURES / 'p113.weights.json'))
    assert code == 0
    assert data['proper'] is True
    assert data['image'] == ['d(0)', 'd(1)', 'd(2)', 'd(3)', 'd(4)']


@pytest.mark.parametrize('name, argv', [
    ('p11112.quiver', ['--weights', '[[1,1,1,1,2]]', '--bondal-ruan']),
    ('p4.quiver', ['--weights', '[[1,1,1,1,1]]', '--bondal-ruan']),
    ('a4.quiver', ['--weights', '[[1]]', '--degrees', '[0,1,2,3,4]']),
    ('f3.quiver', ['--weights', '[[1,0,1,3],[0,1,0,1]]',
                   '--degrees', '[[0,0],[1,0],[3,1],[4,1]]']),
])
def test_toric_reproduces_the_frozen_benchmark_inputs(tmp_path, name, argv):
    # the benchmark times these frozen bytes; the generator must still
    # write them exactly
    out = tmp_path / name
    assert main(['toric', *argv, '--out', str(out)]) == 0
    assert out.read_bytes() == (BENCHMARK_INPUTS / name).read_bytes()


@pytest.mark.parametrize('weights, extra', [
    ('[[1.5,1,1]]', ['--bondal-ruan']),
    ('[[true,1,1]]', ['--bondal-ruan']),
    ('[[1,1,1]]', ['--degrees', '[["a"]]']),
    ('[[1,1,1]]', ['--degrees', '[[0],["a"]]']),
    ('[[1,1,1]]', ['--degrees', '[[0,1]]']),
    ('[[1,1,1]]', ['--degrees', '5']),
    ([[1, 1, 1]], []),
    ({'free': [[1, 1]], 'torsion': [{'row': [0, 1]}]}, []),
    ({'free': [[1, 1]], 'torsion': [{'mod': 2}]}, []),
    ({'free': 5}, []),
    ({'free': [[1, 1]], 'degrees': 5}, []),
    ({'free': [[1, 1]], 'torsion': 5}, []),
    ({'free': [], 'ncols': 'two'}, []),
    ({'free': [[1, 1]], 'degrees': []}, []),
    ('[[1,1]]', ['--degrees', '[]']),
])
def test_toric_refuses_malformed_weight_data(capsys, tmp_path, weights,
                                             extra):
    if not isinstance(weights, str):
        path = tmp_path / 'bad.weights.json'
        path.write_text(json.dumps(weights))
        weights = str(path)
    code = main(['toric', '--weights', weights, *extra])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ''
    assert err.startswith('error: ') and err.count('\n') == 1


@pytest.mark.parametrize('degrees', ['[0,1]', '[0,0]'])
def test_toric_takes_degrees_or_bondal_ruan_not_both(capsys, degrees):
    # the degree collection is listed or the half-open zonotope's, so the
    # pair is a usage error, whatever the list holds
    with pytest.raises(SystemExit) as e:
        main(['toric', '--weights', '[[1,1,1]]', '--bondal-ruan',
              '--degrees', degrees])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == '' and 'not allowed with argument' in err


def test_toric_bondal_ruan_refuses_a_weights_file_with_degrees(capsys):
    code = main(['toric', '--weights', str(FIXTURES / 'f3.weights.json'),
                 '--bondal-ruan'])
    out, err = capsys.readouterr()
    assert code == 1 and out == ''
    assert err.startswith('error: ') and err.count('\n') == 1
    assert "'degrees'" in err


def test_toric_refuses_an_empty_degrees_string(capsys):
    # not JSON at all, so a usage error rather than malformed weight data
    assert main(['toric', '--weights', '[[1,1]]', '--degrees', '']) == 2
    out, err = capsys.readouterr()
    assert out == '' and err.startswith('error: ')


def test_toric_has_no_emit_quiver_flag():
    # toric emits its quiver whenever it builds an algebra; the switch is
    # tensor's alone
    with pytest.raises(SystemExit) as e:
        main(['toric', '--weights', '[[1,1,1]]', '--bondal-ruan',
              '--emit-quiver'])
    assert e.value.code == 2


def test_tensor_report_and_dsl(capsys):
    code, data = run_json(capsys, 'tensor', P2, P2)
    assert code == 0
    assert data['vertices'] == 9 and data['arrows'] == 36
    code, out = run(capsys, 'tensor', P2, P2, '--emit-quiver')
    assert code == 0
    from hpa.algebra import from_document
    assert len(from_document(out).classes) == data['classes']


def test_outputs_validate_and_reproduce(capsys):
    for argv, name in [
        (['check', P2], 'check'),
        (['homology', P2], 'homology'),
        (['betti', P2], 'betti'),
        (['koszul', P2], 'koszul'),
    ]:
        code, first = run(capsys, *argv)
        assert code == 0
        jsonschema.validate(json.loads(first), _schema(name))
        _, second = run(capsys, *argv)
        assert first == second


def test_console_script():
    proc = subprocess.run([sys.executable, '-m', 'hpa.cli', 'homology', P2],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)['homology']['1'] == [2, []]


def test_peak_launcher_reports_and_enforces_a_ceiling():
    # tools/peak.py: the report passes through, one JSON line of wall time
    # and peak RSS goes to stderr, and a ceiling below the peak fails
    peak = str(FIXTURES.parent / 'tools' / 'peak.py')
    proc = subprocess.run([sys.executable, peak, '--', 'homology', P2],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)['homology']['1'] == [2, []]
    line = json.loads(proc.stderr.splitlines()[-1])
    assert line['argv'] == ['homology', P2] and line['exit'] == 0
    assert line['wall_s'] > 0 and line['peak_rss_mb'] > 1
    proc = subprocess.run([sys.executable, peak, '--max-mb', '1', '--',
                           'homology', P2], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith('peak RSS ')


@pytest.mark.parametrize('argv', [
    ['morse', F1], ['morse', F3, '--matching', 'greedy'], ['koszul', F3]])
def test_reports_do_not_depend_on_the_hash_seed(argv):
    # same input and flags, byte-identical report, however str hashes
    src = str(FIXTURES.parent / 'src')
    outs = set()
    for seed in ('0', '1'):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get('PYTHONPATH', '')]))
        proc = subprocess.run([sys.executable, '-m', 'hpa.cli', *argv],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_non_cancellative_refused(capsys, tmp_path):
    doc = ("vertices: u m v\n"
           "arrows:\n  x: u -> m\n  y: u -> m\n  z: m -> v\n"
           "relations:\n  x z = y z\n")
    p = tmp_path / 'noncancellative.quiver'
    p.write_text(doc)
    report = tmp_path / 'report.json'
    for cmd in ('realize', 'homology', 'resolve', 'morse', 'betti', 'koszul'):
        assert main([cmd, str(p)]) == 1, cmd
        out, err = capsys.readouterr()
        assert out == ''
        assert "right cancellation fails for r=z with p=x, p'=y" in err
        assert main([cmd, str(p), '--out', str(report)]) == 1, cmd
        assert not report.exists()
    code, data = run_json(capsys, 'check', str(p))
    assert code == 1
    assert data['report']['violations'] == [
        {'side': 'right', 'r': ['z'], 'r_tail': 'm', 'p': ['x'], 'p2': ['y'],
         'p_tail': 'u'}]


def test_negative_max_dim_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main(['realize', P2, '--max-dim', '-1'])
    assert e.value.code == 2


ARROW_PAIR = {'top': {'tail': 'u', 'chain': [[], ['s'], ['s', 't']]},
              'bottom': {'tail': 'u', 'chain': [[], ['x']]}}


@pytest.mark.parametrize('matching', ['bh', 'greedy'])
def test_morse_refuses_matching_of_arrow_cell(capsys, tmp_path, matching):
    # cancellative but ungraded: the arrow cell [e_u < x] = [e_u < s t] is
    # the middle face of [e_u < s < s t].  Both constructions leave it
    # unmatched; a matching file that adds that pair is refused
    p = tmp_path / 'ungraded.quiver'
    p.write_text(UNGRADED)
    code, data = run_json(capsys, 'morse', str(p), '--matching', matching)
    assert code == 0
    assert data['internal']['ok'] and data['acyclic']['ok']
    assert data['quasi_iso']['ok'] and data['d_squared']['ok']
    build = {'bh': babson_hersh_matching,
             'greedy': greedy_internal_matching}[matching]
    a = _load(str(p))
    pairs = morse_pairs(build(a), cellular_resolution(a))
    f = tmp_path / 'arrow.json'
    f.write_text(json.dumps({'pairs': matching_to_json(a, pairs)['pairs']
                             + [ARROW_PAIR]}))
    code, data = run_json(capsys, 'morse', str(p), '--matching', str(f))
    assert code == 1
    assert data['internal']['witnesses'] == [
        ['arrow cell matched', '[e_u < s t]']]
    assert data['criticals'] is None


def test_morse_refusal_survives_optimized_python(tmp_path):
    p = tmp_path / 'ungraded.quiver'
    p.write_text(UNGRADED)
    f = tmp_path / 'arrow.json'
    f.write_text(json.dumps({'pairs': [ARROW_PAIR]}))
    proc = subprocess.run([sys.executable, '-O', '-m', 'hpa.cli', 'morse',
                           str(p), '--matching', str(f)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert not data['internal']['ok'] and data['criticals'] is None


@pytest.mark.parametrize('name, matching', [('p2', 'bh'), ('p2', 'greedy'),
                                            ('f1', 'bh')])
def test_morse_checks_the_matching_once(monkeypatch, capsys, name, matching):
    # every route builds one Matching and checks its pairs once; the pairs
    # that greedy coreduction and growth make (all of them under greedy,
    # F1's non-shellable interval under bh) and the pairs read off the
    # shellings are internal and acyclic by construction
    from hpa import morse
    calls = {}
    for check in ('check_internal', 'check_acyclic'):
        def counted(m, fn=getattr(morse, check), check=check):
            calls[check] = calls.get(check, 0) + 1
            return fn(m)
        monkeypatch.setattr(morse, check, counted)
    main(['morse', str(FIXTURES / f'{name}.quiver'), '--matching', matching])
    capsys.readouterr()
    assert calls == {'check_internal': 1, 'check_acyclic': 1}


def test_resolve_prints_a_typed_error_without_traceback(monkeypatch, capsys):
    # a 1-skeleton that claims to be whole sends the contracting homotopy
    # out of the complex
    from hpa import resolution
    real = resolution.cellular_resolution

    def skeleton(a, max_dim=None):
        c = real(a, max_dim=1)
        c.truncated = False
        return c
    monkeypatch.setattr(resolution, 'cellular_resolution', skeleton)
    assert main(['resolve', P2]) == 1
    out, err = capsys.readouterr()
    assert out == ''
    assert err.startswith('error: homotopy left the complex')
    assert err.count('\n') == 1


def test_witness_and_error_texts_name_chains(p2):
    # cells are ids inside the library, but reports and errors name each
    # cell by its chain of class ids, in the bytes they had when cells were
    # those tuples
    from hpa.cli import _check_json
    from hpa.morse import MatchingError, matching_from_json
    from hpa.resolution import (BimoduleComplex, ResolutionError,
                                cellular_resolution, check_resolution,
                                verify_d_squared)

    c = cellular_resolution(p2)
    # the sign of face 0 of the first 2-cell flipped
    flipped = Mutant(c, c.cells[2][0],
                     lambda ts: [(-ts[0][0], *ts[0][1:]), *ts[1:]])
    for d2 in (verify_d_squared(flipped), check_resolution(flipped)[0]):
        assert _check_json(d2, "d^2 = 0") == {
            'ok': False, 'checked': 9, 'label': 'd^2 = 0', 'failures': [
                '((0, 1, 2), {(2, (14,), 14): -2, (1, (10,), 11): 2})']}

    edge = c.cells[1][3]
    assert c.chain(edge) == (0, 4)

    class FaceZeroFlipped(BimoduleComplex):
        def terms(self, cell):
            out = super().terms(cell)
            if cell == edge:
                s, l, f, r = out[0]
                out = [(-s, l, f, r)] + out[1:]
            return out
    assert _check_json(check_resolution(FaceZeroFlipped(p2))[1],
                       "d h + h d = id") == {
        'ok': False, 'checked': 90, 'label': 'd h + h d = id', 'failures': [
            '((4, (14,), 14), {(4, (14,), 14): -1})',
            '((0, (0, 4), 14), {(0, (0, 4), 14): -1})']}

    with pytest.raises(MatchingError, match=(
            r'^not a cell of the realization: \[e_v0 < x < x\] from v0$')):
        matching_from_json({'pairs': [{
            'top': {'tail': 'v0', 'chain': [[], ['x'], ['x']]},
            'bottom': {'tail': 'v0', 'chain': [[]]}}]}, p2)

    skeleton = cellular_resolution(p2, max_dim=1)
    below = cell_of(skeleton, (p2.trivial_class['v1'],
                               p2.arrow_class["y'"]))
    with pytest.raises(ResolutionError, match=(
            r'^homotopy left the complex: \(0, 1, 3\)$')):
        skeleton.h_element({(p2.arrow_class['x'], below,
                             p2.trivial_class['v2']): 1})


def _homology_paths(monkeypatch):
    """Record which homology path cmd_homology takes: each call of
    realization_homology, and each call of linalg.homology with the
    number of cells per degree of the complex it eliminates."""
    from hpa import linalg, realization
    calls = []

    def realization_homology(*args, fn=realization.realization_homology,
                             **kwargs):
        calls.append('realization_homology')
        return fn(*args, **kwargs)

    def homology(cells, *args, fn=linalg.homology, **kwargs):
        cells = list(cells)
        calls.append(('homology', [len(cs) for cs in cells]))
        return fn(cells, *args, **kwargs)
    monkeypatch.setattr(realization, 'realization_homology',
                        realization_homology)
    monkeypatch.setattr(linalg, 'homology', homology)
    return calls


def _morse_route(path, max_dim=None):
    """The calls of the Morse route: realization_homology, which eliminates
    the Morse complex of the Babson-Hersh matching of the whole realization
    once, up to the cap (the critical cells that MorseComplex keeps), and
    nothing else."""
    counts = MorseComplex(babson_hersh_matching(_load(path))).counts()
    counts = counts[:None if max_dim is None else max_dim + 1]
    while len(counts) > 1 and not counts[-1]:
        counts.pop()
    return ['realization_homology', ('homology', counts)]


def _elimination_homology(path, ring, max_dim=None):
    x = cellular_resolution(_load(path), max_dim=max_dim)
    h = cellular_homology(x, parse_ring(ring))
    return {str(k): [r, t] for k, (r, t) in h.items()}


@pytest.mark.parametrize('ring', ['Z', 'Fp:2'])
def test_homology_takes_the_morse_path(monkeypatch, capsys, ring):
    calls = _homology_paths(monkeypatch)
    code, data = run_json(capsys, 'homology', F3, '--ring', ring)
    assert code == 0 and calls == _morse_route(F3)
    assert data['homology'] == _elimination_homology(F3, ring)


@pytest.mark.parametrize('ungraded, max_dim', [(False, 1), (True, None)])
def test_homology_has_one_route(monkeypatch, capsys, tmp_path, ungraded,
                                max_dim):
    # a truncated realization and an ungraded algebra take the Morse path
    # too, and agree with elimination over every cell
    path = F3
    if ungraded:
        path = str(tmp_path / 'ungraded.quiver')
        pathlib.Path(path).write_text(UNGRADED)
    argv = ['homology', path]
    if max_dim is not None:
        argv += ['--max-dim', str(max_dim)]
    calls = _homology_paths(monkeypatch)
    code, data = run_json(capsys, *argv)
    assert code == 0 and calls == _morse_route(path, max_dim)
    assert data['homology'] == _elimination_homology(path, 'Z', max_dim)


def test_homology_refuses_a_gradient_path_that_closes_a_cycle(monkeypatch,
                                                             capsys):
    # one corrupted toggle: the face f of the top t that the bottom s is
    # matched with claims t as its top too, so the walk from s comes back
    # to s; it is refused with the cycle as witness.  A corrupted R_j of a
    # shelling cannot do this: along a gradient path the first facet that
    # holds the cell never moves later, and within one facet every bottom
    # lacks its toggle, which each face of its top other than it holds
    from hpa import realization
    a = _load(F3)

    def chain(*words):
        return tuple(a.word_class(a.quiver.word('d(0,0)', tuple(w.split())))
                     for w in words)
    s = chain('', 'x3@d(0,0) x1^2*x2', 'x3@d(0,0) x1*x2*x3 x1@d(3,1)')
    t = chain('', 'x3@d(0,0)', 'x3@d(0,0) x1^2*x2',
              'x3@d(0,0) x1*x2*x3 x1@d(3,1)')
    f = t[:2] + t[3:]
    partner = realization.partner
    assert (partner(a, s), partner(a, f)) == ((t, 1), ())
    monkeypatch.setattr(realization, 'partner', lambda a, c: (
        (t, 2) if c == f else partner(a, c)))
    names = [realization.format_chain(a, c) for c in (s, t, f, t, s)]
    # the patched rule reaches both walks on chains
    for command in ('homology', 'morse'):
        assert main([command, F3]) == 1
        out, err = capsys.readouterr()
        assert out == ''
        assert err == ('error: gradient path closes a cycle: ' +
                       ' -> '.join(names) + '\n')


def test_homology_refuses_cell_counts_off_by_one(monkeypatch, capsys):
    # the critical cells must have the Euler characteristic of the counts
    from hpa import realization
    counts = realization.cell_counts

    def off_by_one(a):
        c = counts(a)
        return [c[0], c[1] + 1, *c[2:]]
    monkeypatch.setattr(realization, 'cell_counts', off_by_one)
    assert main(['homology', P2]) == 1
    out, err = capsys.readouterr()
    assert out == ''
    assert err == ('error: critical cells [3, 6, 3] do not have the Euler '
                   'characteristic of the cells [3, 13, 9]\n')


_LAYERS = {'realization', 'linalg', 'resolution', 'morse', 'invariants',
           'toric'}
# the standard modules of rational arithmetic: no subcommand loads them,
# since the toric LPs run on integers like the linear algebra
_RATIONALS = {'fractions', 'decimal'}


@pytest.mark.parametrize('argv, absent', [
    (['--version'], {*_LAYERS, *_RATIONALS}),
    (['check', P2], {*_LAYERS, *_RATIONALS}),
    (['tensor', P2, P2], {*_LAYERS, *_RATIONALS}),
    (['toric', '--weights', str(FIXTURES / 'p2.weights.json')],
     {'realization', 'linalg', 'resolution', 'morse', 'invariants',
      *_RATIONALS}),
    (['toric', '--weights', '[[1,1,1]]', '--bondal-ruan'],
     {'realization', 'linalg', 'resolution', 'morse', 'invariants',
      *_RATIONALS}),
    (['realize', P2], {'linalg', 'resolution', 'morse', 'invariants',
                       'toric', *_RATIONALS}),
    (['homology', P2], {'resolution', 'morse', 'invariants', 'toric',
                        *_RATIONALS}),
    (['resolve', P2], {'realization', 'linalg', 'morse', 'toric',
                       'invariants', *_RATIONALS}),
    (['morse', P2], {'toric', *_RATIONALS}),
    (['betti', P2], {'morse', 'toric', 'resolution', *_RATIONALS}),
    (['koszul', P2], {'toric', 'morse', 'resolution', *_RATIONALS}),
], ids=['version', 'check', 'tensor', 'toric', 'toric-bondal-ruan', 'realize',
        'homology', 'resolve', 'morse', 'betti', 'koszul'])
def test_subcommand_loads_only_its_layers(argv, absent):
    # a fresh interpreter runs cli.main, then lists the hpa modules whose
    # code has run, and the modules of _RATIONALS it has loaded; a layer
    # registered by cli.LAYERS but never used is still a lazy module, of a
    # subclass of ModuleType
    code = ('import contextlib, io, json, sys, types\n'
            'sys.path.insert(0, sys.argv.pop(1))\n'
            'from hpa import cli\n'
            'with contextlib.redirect_stdout(io.StringIO()):\n'
            '    try:\n'
            '        status = cli.main(sys.argv[1:])\n'
            '    except SystemExit as e:\n'
            '        status = e.code\n'
            'print(json.dumps([status, sorted(\n'
            '    name[4:] for name, m in sys.modules.items()\n'
            '    if name.startswith("hpa.") and type(m) is types.ModuleType)\n'
            '    + sorted({"fractions", "decimal"} & sys.modules.keys())]))\n')
    src = str(pathlib.Path(__file__).resolve().parent.parent / 'src')
    proc = subprocess.run([sys.executable, '-c', code, src, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, loaded = json.loads(proc.stdout)
    assert status == 0
    assert 'cli' in loaded
    assert not absent & set(loaded), loaded


def test_every_layer_is_registered():
    # a module missing from cli.LAYERS would not be in sys.modules after
    # `import hpa.cli`, where the in-process tracer of perfbench looks
    src = pathlib.Path(__file__).resolve().parent.parent / 'src' / 'hpa'
    from hpa import cli
    assert set(cli.LAYERS) == {p.stem for p in src.glob('*.py')} - {
        '__init__', 'cli'}


def test_morse_shells_each_class_once(capsys, monkeypatch, tmp_path):
    # the matching shells every nontrivial class and lists its critical
    # cells in the same pass; tor_table reads the verdict kept per class
    from hpa import realization
    from hpa.algebra import tensor
    from hpa.dsl import emit_quiver
    a = tensor(free_algebra(linear_quiver(2)),
               free_algebra(linear_quiver(2, vertex_prefix='w',
                                          arrow_prefix='b')))
    path = tmp_path / 'a2a2.quiver'
    path.write_text(emit_quiver(a.quiver, a.relations))
    calls = []
    chains = realization.maximal_chains

    def counted(*args):
        calls.append(args)
        return chains(*args)
    monkeypatch.setattr(realization, 'maximal_chains', counted)
    code, data = run_json(capsys, 'morse', str(path))
    assert code == 0 and data['quasi_iso']['ok']
    assert len(calls) == sum(not c.is_trivial for c in a.classes)


@pytest.mark.parametrize('path', [
    P2, F1, F3, str(FIXTURES / 'p113.quiver'),
    str(BENCHMARK_INPUTS / 'p11112.quiver')],
    ids=['p2', 'f1', 'f3', 'p113', 'p11112'])
def test_each_command_walks_the_chains_of_a_class_once(monkeypatch, capsys,
                                                       path):
    # homology, morse under bh, greedy and a matching file, and betti walk
    # the maximal chains of each class at most once: the matching lists its
    # critical cells in the pass that shells, and partner and tor_table read
    # the verdict kept per class.  A class whose order does not shell (F1
    # has one) keeps the chains of that walk, from which tor_table
    # eliminates the complex they generate.  koszul is left out: its Morse
    # fallback shells the classes that interval_chains has walked already
    from hpa import invariants, realization
    calls = []
    chains = realization.maximal_chains

    def counted(a, u, w):
        calls.append(w)
        return chains(a, u, w)
    monkeypatch.setattr(realization, 'maximal_chains', counted)
    monkeypatch.setattr(invariants, 'maximal_chains', counted)
    runs = [['homology'], ['morse'], ['morse', '--matching', 'greedy'],
            ['betti']]
    if path == F3:
        runs.append(['morse', '--matching',
                     str(FIXTURES / 'f3_matching.json')])
    assert bool(unshelled_classes(_load(path))) == (path == F1)
    for command, *extra in runs:
        calls.clear()
        code, _ = run_json(capsys, command, path, *extra)
        assert code == 0 and calls
        assert all(calls.count(w) <= 1 for w in calls), (command, extra)


@pytest.mark.parametrize('path', [
    P2, F1, F3, str(BENCHMARK_INPUTS / 'p11112.quiver')],
    ids=['p2', 'f1', 'f3', 'p11112'])
def test_each_command_finds_each_least_cover_once(monkeypatch, capsys,
                                                  path):
    # one least-cover table per algebra: the shellings and the gradient
    # walk, whose partner rule re-reads the facet of every cell it meets,
    # look each (z, q) up in it and find it only once
    from hpa import realization
    found = []
    missing = realization._Least.__missing__

    def counted(least, key):
        found.append(key)
        return missing(least, key)
    monkeypatch.setattr(realization._Least, '__missing__', counted)
    for command in ('homology', 'morse', 'betti'):
        found.clear()
        code, _ = run_json(capsys, command, path)
        assert code == 0 and found
        assert len(found) == len(set(found)), command


@pytest.mark.parametrize('command', ['check', 'realize', 'homology',
                                     'resolve', 'morse', 'betti', 'koszul'])
def test_each_subcommand_checks_cancellation_once(monkeypatch, capsys,
                                                  command):
    # the CLI and every library entry point refuse a non-cancellative
    # algebra; the verdict is kept on the algebra, so A4(x)A4 is checked once
    from hpa import algebra
    calls = []
    check = algebra.check_hpa

    def counted(a):
        calls.append(a)
        return check(a)
    monkeypatch.setattr(algebra, 'check_hpa', counted)
    code, _ = run(capsys, command, str(BENCHMARK_INPUTS / 'a4a4.quiver'))
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize('path', [
    str(BENCHMARK_INPUTS / 'p11112.quiver'), F3, F1],
    ids=['p11112', 'f3', 'f1'])
def test_morse_and_koszul_never_build_the_realization(monkeypatch, capsys,
                                                      path):
    # every matching is a partner rule on chains: hpa morse under bh (F1's
    # unshelled interval included), greedy and a matching file, and
    # koszul_check (F1's minimal-nonlinear certificate), build no cells
    from hpa import resolution
    from hpa.invariants import koszul_check

    def refuse(*args, **kwargs):
        raise AssertionError('a cell complex was built')
    monkeypatch.setattr(resolution.BimoduleComplex, '__init__', refuse)
    runs = [[], ['--matching', 'greedy']]
    if path == F3:
        runs.append(['--matching', str(FIXTURES / 'f3_matching.json')])
    for extra in runs:
        code, data = run_json(capsys, 'morse', path, *extra)
        assert code == 0 and data['quasi_iso']['ok']
    verdict = koszul_check(_load(path))
    assert (path == F1) == (verdict.method == 'minimal-nonlinear')
