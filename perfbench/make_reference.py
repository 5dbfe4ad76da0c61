"""Regenerate perfbench/inputs/ and perfbench/reference.json.

    python3 perfbench/make_reference.py

Run this only when a change is meant to alter the frozen inputs or the
bytes of a report; the run's `correct` flag compares against what it writes.
Each operation runs twice, under two hash seeds, and must give the same
bytes and exit code both times.
"""

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / 'src'))

from run import algebra_signature  # noqa: E402
from workloads import (COPIED, FROZEN_DIR, GENERATORS,  # noqa: E402
                       KNOWN_DEFECTS, MAIN_WORKLOADS, WORKLOADS, input_paths,
                       op_key, resolve)


def hpa(argv, hash_seed=0):
    env = dict(os.environ, PYTHONPATH=str(ROOT / 'src'),
               PYTHONHASHSEED=str(hash_seed))
    p = subprocess.run([sys.executable, '-m', 'hpa.cli'] + argv, cwd=ROOT,
                       env=env, capture_output=True, timeout=600)
    return p.returncode, p.stdout


def fixed_sha256(data):
    """Digest of the report a fixed `hpa morse` gives: the defective
    report with quasi_iso.ok true, serialized as the CLI does."""
    report = json.loads(data)
    if report['quasi_iso']['ok'] or not report['d_squared']['ok']:
        raise SystemExit('a known defect no longer shows as described')
    report['quasi_iso']['ok'] = True
    text = json.dumps(report, indent=1, sort_keys=True) + '\n'
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    frozen = ROOT / FROZEN_DIR
    frozen.mkdir(exist_ok=True)
    made = {}
    for w in MAIN_WORKLOADS:
        for name in WORKLOADS[w]['setup']:
            made[name] = str((frozen / name).relative_to(ROOT))
    for name in made:
        code, data = hpa(resolve(GENERATORS[name], made))
        if code != 0:
            raise SystemExit(f'generating {name} exited {code}')
        (frozen / name).write_bytes(data)
    for name, src in COPIED.items():
        shutil.copyfile(ROOT / src, frozen / name)

    ref = {'inputs': {}, 'signatures': {}, 'reports': {}}
    for path in sorted(frozen.iterdir()):
        ref['inputs'][path.name] = {
            'sha256': hashlib.sha256(path.read_bytes()).hexdigest()}
    for w, spec in WORKLOADS.items():
        for name in spec['setup']:
            text = (ROOT / spec['inputs'] / name).read_text()
            sig = algebra_signature(text)
            if ref['signatures'].setdefault(name, sig) != sig:
                raise SystemExit(f'{name} differs between workloads')

    (ROOT / '.perfbench').mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / '.perfbench') as tmp:
        out = str(pathlib.Path(tmp) / 'out.csv')
        for w, spec in WORKLOADS.items():
            files = input_paths(w)
            for argv in spec['ops']:
                key = op_key(argv)
                runs = []
                for seed in (0, 1):
                    code, data = hpa(resolve(argv, files, out), seed)
                    if '{out}' in argv:
                        data = pathlib.Path(out).read_bytes()
                    runs.append((code, data))
                if runs[0] != runs[1]:
                    raise SystemExit(f'{key}: output depends on the hash seed')
                code, data = runs[0]
                entry = {'exit': code, 'bytes': len(data),
                         'sha256': hashlib.sha256(data).hexdigest()}
                if key in KNOWN_DEFECTS:
                    if code != 1:
                        raise SystemExit(f'{key}: known defect exits {code}')
                    entry['fixed_sha256'] = fixed_sha256(data)
                if ref['reports'].setdefault(key, entry) != entry:
                    raise SystemExit(f'{key}: differs between workloads')
                print(f'{w:9s} exit {code} {len(data):8d} B  {key}')

    (HERE / 'reference.json').write_text(
        json.dumps(ref, indent=1, sort_keys=True) + '\n')


if __name__ == '__main__':
    main()
