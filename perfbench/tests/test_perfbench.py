"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import make_reference  # noqa: E402
import tracer  # noqa: E402
from workloads import KNOWN_DEFECTS  # noqa: E402


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans = [['a', 0.0, 10.0, None], ['b', 2.0, 5.0, 0],
               ['c', 3.0, 4.0, 1], ['b', 6.0, 7.0, 0]]
    assert t.self_times() == {'a': 6.0, 'b': 3.0, 'c': 1.0}


def test_fixed_form_of_a_known_defect():
    report = {'d_squared': {'ok': True}, 'quasi_iso': {'ok': False}}
    fixed = {'d_squared': {'ok': True}, 'quasi_iso': {'ok': True}}
    text = json.dumps(fixed, indent=1, sort_keys=True) + '\n'
    assert (make_reference.fixed_sha256(json.dumps(report)) ==
            hashlib.sha256(text.encode()).hexdigest())


def test_only_known_defects_have_a_fixed_form():
    ref = json.loads((BENCH / 'reference.json').read_text())['reports']
    fixed = {k for k, r in ref.items() if 'fixed_sha256' in r}
    assert fixed == set(KNOWN_DEFECTS)
    assert all(ref[k]['exit'] == 1 for k in fixed)


def test_every_wrapped_name_exists():
    code = ('import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; '
            'import hpa.cli, tracer; '
            'print(tracer.install(tracer.Tracer()))')
    out = subprocess.run([sys.executable, '-c', code, str(ROOT / 'src'),
                          str(BENCH)], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == '[]'


def test_quick_mode_prints_every_metric():
    p = subprocess.run([sys.executable, str(BENCH / 'run.py'), '--quick'],
                       capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    assert result['correct'] is True, lines[-2]
    assert result['failed'] == 0 and result['attempted'] > 0
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    metrics = result['metrics']
    for m in spec['end_to_end'] + spec['per_layer']:
        assert metrics[m['name']]['unit'] == m['unit'], m['name']
        assert isinstance(metrics[m['name']]['value'], (int, float))
    run = json.loads(lines[-2])['run']
    assert run['python'] and run['nproc'] >= 1 and run['src_sha256']


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / 'BENCHMARK.json', tmp_path)
    shutil.copytree(BENCH, tmp_path / 'perfbench',
                    ignore=shutil.ignore_patterns('__pycache__'))
    p = subprocess.run([sys.executable, 'perfbench/run.py', '--workload',
                        'toric', '--seed', '1', '--seconds', '1',
                        '--trace', '0'], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
