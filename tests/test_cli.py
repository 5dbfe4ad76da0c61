import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from hpa import FP_LIMIT, parse_ring
from hpa.cli import main, _load, _schema
from hpa.realization import build_realization

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


def test_bad_ring_rejected():
    with pytest.raises(SystemExit) as e:
        main(['homology', P2, '--ring', 'F4'])
    assert e.value.code == 2


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


@pytest.mark.parametrize('max_dim', ['0', '1', '2'])
def test_morse_max_dim_with_the_default_matching(capsys, max_dim):
    # the capped complex drops Babson-Hersh pairs whose top lies above it
    code, bh = run_json(capsys, 'morse', P2, '--max-dim', max_dim)
    assert code == 0
    _, greedy = run_json(capsys, 'morse', P2, '--max-dim', max_dim,
                         '--matching', 'greedy')
    assert bh['criticals'] == greedy['criticals']
    assert bh['quasi_iso'] == greedy['quasi_iso']
    assert bh['quasi_iso']['ok'] is True


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


CELL = {'tail': 'v0', 'chain': [[]]}


@pytest.mark.parametrize('doc', [
    {},
    {'pairs': [{'bottom': CELL}]},
    {'pairs': [{'top': CELL}]},
    {'pairs': [{'top': {'chain': [[], ['x']]}, 'bottom': CELL}]},
    {'pairs': [{'top': {'tail': 'v0'}, 'bottom': CELL}]},
])
def test_morse_refuses_malformed_matching_file(capsys, tmp_path, doc):
    p = tmp_path / 'bad_matching.json'
    p.write_text(json.dumps(doc))
    code = main(['morse', P2, '--matching', str(p)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ''
    assert err.startswith('error: matching file: missing ')
    assert err.count('\n') == 1


def test_betti_csv(capsys, tmp_path):
    out = tmp_path / 'betti.csv'
    code = main(['betti', P2, '--out', str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == 'degree,tail,head,rank'
    assert len(lines) == 7


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


def test_toric_refuses_an_empty_degrees_string(capsys):
    # not JSON at all, so a usage error rather than malformed weight data
    assert main(['toric', '--weights', '[[1,1]]', '--degrees', '']) == 2
    out, err = capsys.readouterr()
    assert out == '' and err.startswith('error: ')


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


def test_non_cancellative_refused(capsys, tmp_path):
    doc = ("vertices: u m v\n"
           "arrows:\n  x: u -> m\n  y: u -> m\n  z: m -> v\n"
           "relations:\n  x z = y z\n")
    p = tmp_path / 'noncancellative.quiver'
    p.write_text(doc)
    for cmd in ('realize', 'homology', 'resolve', 'morse', 'betti', 'koszul'):
        assert main([cmd, str(p)]) == 1, cmd
        out, err = capsys.readouterr()
        assert out == ''
        assert "right cancellation fails for r=z with p=x, p'=y" in err
    code, data = run_json(capsys, 'check', str(p))
    assert code == 1
    assert data['report']['violations'] == [
        {'side': 'right', 'r': ['z'], 'r_tail': 'm', 'p': ['x'], 'p2': ['y'],
         'p_tail': 'u'}]


def test_negative_max_dim_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main(['realize', P2, '--max-dim', '-1'])
    assert e.value.code == 2


UNGRADED = ("vertices: u m v w\n"
            "arrows:\n  s: u -> m\n  t: m -> v\n  x: u -> v\n  y: v -> w\n"
            "relations:\n  x = s t\n")


@pytest.mark.parametrize('matching', ['bh', 'greedy'])
def test_morse_refuses_matching_of_arrow_cell(capsys, tmp_path, matching):
    # cancellative but ungraded: both constructions pair the arrow cell
    # [e_u < s t] with [e_u < s < s t], which is not internal
    p = tmp_path / 'ungraded.quiver'
    p.write_text(UNGRADED)
    assert main(['check', str(p)]) == 0
    capsys.readouterr()
    assert main(['morse', str(p), '--matching', matching]) == 1
    out, err = capsys.readouterr()
    assert out == ''
    assert err == ("error: matching not internal: "
                   "('arrow cell matched', '[e_u < s t]')\n")


def test_morse_refusal_survives_optimized_python(tmp_path):
    p = tmp_path / 'ungraded.quiver'
    p.write_text(UNGRADED)
    proc = subprocess.run([sys.executable, '-O', '-m', 'hpa.cli', 'morse',
                           str(p)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ''
    assert proc.stderr.startswith('error: matching not internal')


@pytest.mark.parametrize('name, matching', [('p2', 'bh'), ('p2', 'greedy'),
                                            ('f1', 'bh')])
def test_morse_checks_the_matching_once(monkeypatch, capsys, name, matching):
    # F1 has a non-shellable interval, so its matching is also augmented
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
    from hpa import realization
    real = realization.build_realization

    def skeleton(a, max_dim=None):
        x = real(a, max_dim=1)
        x.truncated = False
        return x
    monkeypatch.setattr(realization, 'build_realization', skeleton)
    assert main(['resolve', P2]) == 1
    out, err = capsys.readouterr()
    assert out == ''
    assert err.startswith('error: homotopy left the complex')
    assert err.count('\n') == 1


def _homology_paths(monkeypatch):
    """Record which homology path cmd_homology takes."""
    from hpa import morse, realization
    calls = []
    for module, name in ((morse, 'morse_homology'),
                         (realization, 'cw_chain_complex')):
        def recorded(*args, fn=getattr(module, name), name=name, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, recorded)
    return calls


def _elimination_homology(path, ring, max_dim=None):
    from hpa.realization import cw_chain_complex, homology
    x = build_realization(_load(path), max_dim=max_dim)
    h = homology(cw_chain_complex(x, parse_ring(ring)))
    return {str(k): [r, t] for k, (r, t) in h.items()}


@pytest.mark.parametrize('ring', ['Z', 'Fp:2'])
def test_homology_takes_the_morse_path(monkeypatch, capsys, ring):
    calls = _homology_paths(monkeypatch)
    code, data = run_json(capsys, 'homology', F3, '--ring', ring)
    assert code == 0 and calls == ['morse_homology']
    assert data['homology'] == _elimination_homology(F3, ring)


@pytest.mark.parametrize('ungraded, max_dim', [(False, 1), (True, None)])
def test_homology_falls_back_to_elimination(monkeypatch, capsys, tmp_path,
                                            ungraded, max_dim):
    # a truncated realization, or a matching refused on an ungraded algebra
    path = F3
    if ungraded:
        path = str(tmp_path / 'ungraded.quiver')
        pathlib.Path(path).write_text(UNGRADED)
    argv = ['homology', path]
    if max_dim is not None:
        argv += ['--max-dim', str(max_dim)]
    calls = _homology_paths(monkeypatch)
    code, data = run_json(capsys, *argv)
    assert code == 0 and calls == ['cw_chain_complex']
    assert data['homology'] == _elimination_homology(path, 'Z', max_dim)


_LAYERS = {'realization', 'linalg', 'resolution', 'morse', 'invariants',
           'toric'}


@pytest.mark.parametrize('argv, absent', [
    (['--version'], _LAYERS),
    (['check', P2], _LAYERS),
    (['tensor', P2, P2], _LAYERS),
    (['toric', '--weights', str(FIXTURES / 'p2.weights.json')],
     {'realization', 'resolution', 'morse', 'invariants'}),
    (['realize', P2], {'resolution', 'morse', 'invariants', 'toric'}),
    (['resolve', P2], {'morse', 'toric', 'invariants'}),
    (['betti', P2], {'morse', 'toric', 'resolution'}),
], ids=['version', 'check', 'tensor', 'toric', 'realize', 'resolve', 'betti'])
def test_subcommand_loads_only_its_layers(argv, absent):
    # a fresh interpreter runs cli.main, then lists the hpa modules whose
    # code has run; a layer registered by cli.LAYERS but never used is still
    # a lazy module, of a subclass of ModuleType
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
            '    if name.startswith("hpa.") and type(m) is types.ModuleType)]))\n')
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
