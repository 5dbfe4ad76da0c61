import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from hpa import cli
from hpa.schema import SchemaError, ValidationError, validate

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / 'fixtures'
SCHEMAS = sorted(p.stem for p in (ROOT / 'src/hpa/schemas').glob('*.json'))
QUIVERS = [str(FIXTURES / f'{name}.quiver')
           for name in ('p2', 'f1', 'f3', 'p113')]
VIOLATION = ("vertices: u m v\n"
             "arrows:\n  a: u -> m\n  b: m -> v\n  c: m -> v\n"
             "relations:\n  a b = a c\n")
NON_INTERNAL = {'pairs': [{'top': {'tail': 'v0', 'chain': [[], ['x']]},
                           'bottom': {'tail': 'v0', 'chain': [[]]}}]}
# one value of each JSON type, swapped in for a value of the report; 2.0
# and True probe `integer`, 'x' an enum, [] a tuple's length, None oneOf
PROBES = [None, True, 7, 2.0, 'x', [], {}]


def _argvs(tmp):
    bad = tmp / 'violation.quiver'
    bad.write_text(VIOLATION)
    matching = tmp / 'non_internal.json'
    matching.write_text(json.dumps(NON_INTERNAL))
    p2, f1, f3, _ = QUIVERS
    argvs = [['check', str(bad)], ['tensor', p2, f1],
             ['toric', '--weights', str(FIXTURES / 'p113.weights.json')],
             ['toric', '--weights', '[[1,1,1]]'],
             ['realize', p2, '--max-dim', '1'],
             ['homology', f3, '--ring', 'Fp:2'],
             ['resolve', p2, '--max-dim', '1'],
             ['morse', f3, '--matching', str(FIXTURES / 'f3_matching.json')],
             ['morse', p2, '--matching', str(matching)]]
    for q in QUIVERS:
        argvs += [[cmd, q] for cmd in ('check', 'realize', 'homology',
                                       'resolve', 'morse', 'betti', 'koszul')]
    return argvs


@pytest.fixture(scope='module')
def reports(tmp_path_factory):
    """{command: [every report the CLI writes on the fixtures]}."""
    tmp = tmp_path_factory.mktemp('reports')
    out = tmp / 'report.json'
    found = {}
    for argv in _argvs(tmp):
        assert cli.main(argv + ['--out', str(out)]) in (0, 1), argv
        found.setdefault(argv[0], []).append(json.loads(out.read_text()))
    return found


def _ours(instance, schema):
    try:
        validate(instance, schema)
    except ValidationError:
        return False
    return True


def _nodes(value, path=()):
    """Every path into value, reading at most two items of each list."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value[:2]):
            yield from _nodes(item, path + (i,))


def _at(doc, path, change):
    """A copy of doc with the node at path replaced by change(node)."""
    if not path:
        return change(doc)
    head, rest = path[0], path[1:]
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[head] = _at(doc[head], rest, change)
    return copy


def _mutations(doc):
    for path in _nodes(doc):
        for probe in PROBES:
            yield _at(doc, path, lambda n, p=probe: p)
        node = doc
        for key in path:
            node = node[key]
        if isinstance(node, dict):
            for key in node:
                yield _at(doc, path, lambda n, k=key: {
                    j: v for j, v in n.items() if j != k})
            yield _at(doc, path, lambda n: {**n, 'unexpected': 0})
        elif isinstance(node, list):
            yield _at(doc, path, lambda n: n[:-1])
            yield _at(doc, path, lambda n: n + n[:1])


def test_every_command_is_covered(reports):
    assert sorted(reports) == SCHEMAS


@pytest.mark.parametrize('command', SCHEMAS)
def test_cli_reports_pass_both_validators(reports, command):
    schema = cli._schema(command)
    for report in reports[command]:
        validate(report, schema)
        jsonschema.validate(report, schema)


@pytest.mark.parametrize('command', SCHEMAS)
def test_mutated_reports_get_the_verdict_of_jsonschema(reports, command):
    schema = cli._schema(command)
    reference = jsonschema.Draft202012Validator(schema)
    verdicts = []
    for report in reports[command]:
        for doc in _mutations(report):
            verdict = _ours(doc, schema)
            assert verdict == reference.is_valid(doc), doc
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize('value, ok', [(3, True), (-3, True), (3.0, True),
                                       (3.5, False), (True, False),
                                       ('3', False), (None, False)])
def test_integer_follows_jsonschema(value, ok):
    schema = {'type': 'integer'}
    assert _ours(value, schema) is ok
    assert jsonschema.Draft202012Validator(schema).is_valid(value) is ok


@pytest.mark.parametrize('value, ok', [(1, False), (1.5, False),
                                       ('x', True), (None, False)])
def test_one_of_needs_exactly_one_match(value, ok):
    schema = {'oneOf': [{'type': 'integer'}, {'type': ['integer', 'string']}]}
    assert _ours(value, schema) is ok
    assert jsonschema.Draft202012Validator(schema).is_valid(value) is ok


@pytest.mark.parametrize('schema', [
    {'type': 'object', 'minProperties': 1},
    # unused by the instance {} below, and still refused
    {'properties': {'a': {'type': 'string', 'format': 'date'}}},
    {'oneOf': [{'type': 'null'}, {'const': 1}]},
    {'additionalProperties': {'type': 'string'}},
    {'type': 'number'},
    {'items': True},
])
def test_unsupported_schema_raises(schema):
    with pytest.raises(SchemaError):
        validate({}, schema)


def test_a_report_off_its_schema_is_one_error_line(monkeypatch, capsys):
    schema = cli._schema

    def stricter(command):
        s = schema(command)
        s['required'].append('absent')
        return s

    monkeypatch.setattr(cli, '_schema', stricter)
    assert cli.main(['homology', QUIVERS[0]]) == 1
    out, err = capsys.readouterr()
    assert out == ''
    assert err == "error: schema mismatch at /: missing key 'absent'\n"


def test_cli_imports_neither_jsonschema_nor_dataclasses():
    # -S keeps site-packages off sys.path: the CLI needs only the stdlib
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import hpa.cli; print(sorted(m for m in "
            "('jsonschema', 'dataclasses') if m in sys.modules))")
    proc = subprocess.run([sys.executable, '-S', '-c', code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '[]\n'


@pytest.mark.parametrize('argv', [['realize', QUIVERS[0]],
                                  ['homology', QUIVERS[0]]])
def test_a_report_off_its_schema_writes_nothing(monkeypatch, capsys,
                                                tmp_path, argv):
    # validation comes first: no byte reaches stdout, no --out file is made
    schema = cli._schema

    def stricter(command):
        s = schema(command)
        s['required'].append('absent')
        return s

    monkeypatch.setattr(cli, '_schema', stricter)
    out = tmp_path / 'report.json'
    for extra in ([], ['--out', str(out)]):
        assert cli.main(argv + extra) == 1
        assert capsys.readouterr().out == ''
    assert not out.exists()


@pytest.mark.parametrize('certificate, ok', [
    ({'variable_order': ['x2', 'x1']}, True),
    ({'intervals': 12}, True),
    ({'criticals': [3, 6, 3]}, True),
    ({'cell': '[e_v0 < x]', 'target': '[e_v1]',
      'coefficient_lengths': [1, 1]}, True),
    ({'reason': 'no minimal Morse complex found'}, True),
    ({}, False),
    ({'intervals': 12, 'reason': 'both'}, False),
    ({'variable_order': ['x1'], 'exhaustive': True}, False),
    ({'cell': '[e_v0 < x]', 'target': '[e_v1]',
      'coefficient_lengths': [1, 1, 0]}, False),
    ({'criticals': 3}, False)])
def test_a_koszul_certificate_has_one_of_five_shapes(certificate, ok):
    schema = cli._schema('koszul')
    doc = {'header': cli._header('koszul'), 'status': 'unknown',
           'method': None, 'certificate': certificate}
    assert _ours(doc, schema) is ok
    assert jsonschema.Draft202012Validator(schema).is_valid(doc) is ok


def test_a_certificate_json_cannot_write_is_refused_before_output(
        monkeypatch, capsys, tmp_path):
    # json cannot write a set: the certificate is refused while the report
    # is validated, before any byte is streamed
    from hpa import invariants
    payload = {'reason': {1, 2}}
    with pytest.raises(ValidationError, match='/certificate'):
        validate({'header': cli._header('koszul'), 'status': 'unknown',
                  'method': None, 'certificate': payload},
                 cli._schema('koszul'))
    monkeypatch.setattr(invariants, 'koszul_check', lambda a: (
        invariants.KoszulVerdict('unknown', None, payload)))
    out = tmp_path / 'koszul.json'
    for extra in ([], ['--out', str(out)]):
        assert cli.main(['koszul', QUIVERS[0]] + extra) == 1
        assert capsys.readouterr().out == ''
    assert not out.exists()


@pytest.mark.parametrize('argv', [
    ['realize', QUIVERS[1]], ['homology', QUIVERS[2], '--ring', 'Fp:2'],
    ['resolve', QUIVERS[3]], ['morse', QUIVERS[0]], ['betti', QUIVERS[1]],
    ['koszul', QUIVERS[2]], ['check', QUIVERS[3]], ['tensor', *QUIVERS[:2]],
    ['toric', '--weights', '[[1,1,2]]']])
def test_stdout_and_out_file_get_the_same_bytes(capsys, tmp_path, argv):
    out = tmp_path / 'report.json'
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert cli.main(argv + ['--out', str(out)]) == 0
    assert capsys.readouterr().out == ''
    assert out.read_bytes() == printed.encode()


def _serialized(instance):
    return json.loads(json.dumps(instance, sort_keys=True))


ROWS = {'type': 'array', 'items': {'type': 'array', 'items': {
    'type': 'integer'}}}


@pytest.mark.parametrize('instance', [
    ((1, 2), [3]), [(1, 2), ()], ([1, 2], (3, 'x')), (1,)])
def test_tuples_are_arrays(instance):
    assert _ours(instance, ROWS) is jsonschema.Draft202012Validator(
        ROWS).is_valid(_serialized(instance))


def test_a_key_that_is_not_a_string_is_refused():
    # json would write the key 2 as "2", which passes; the payload does not
    schema = {'type': 'object', 'properties': {'h': {
        'type': 'object', 'patternProperties': {'^[0-9]+$': {
            'type': 'integer'}}}}}
    ok = {'h': {'2': 1}}
    assert _ours(ok, schema) and jsonschema.validate(_serialized(ok),
                                                     schema) is None
    with pytest.raises(ValidationError,
                       match=r'^schema mismatch at /h: key 2 is not a '
                             r'string$'):
        validate({'h': {'2': 1, 2: 1}}, schema)


@pytest.mark.parametrize('items, at, name', [
    ([1, 2, True, 4, 'x'], 2, 'integer'), (['a', 'b', 3, None], 2, 'string'),
    ([0, 1.0, 2.5], 2, 'integer'), ([None, False], 1, 'null')])
def test_one_pass_names_the_item_the_walk_names(items, at, name):
    # the one pass settles {'type': name} alone; a title (an annotation)
    # makes the schema one that only the per-item walk checks
    messages = []
    for schema in ({'type': name}, {'type': name, 'title': 'walked'}):
        array = {'type': 'array', 'items': schema}
        with pytest.raises(ValidationError) as e:
            validate(items, array)
        messages.append(str(e.value))
        errors = jsonschema.Draft202012Validator(array).iter_errors(
            _serialized(items))
        assert [err.path[0] for err in errors][:1] == [at]
    assert messages[0] == messages[1] == (
        f"schema mismatch at /{at}: {items[at]!r} is not of type {name}")


@pytest.mark.parametrize('items', [[], [1, 2.0, -3], ['a', 'b'],
                                   [True, False]])
def test_one_pass_passes_what_jsonschema_passes(items):
    for name in ('integer', 'string', 'boolean'):
        array = {'type': 'array', 'items': {'type': name}}
        assert _ours(items, array) is jsonschema.Draft202012Validator(
            array).is_valid(_serialized(items))
