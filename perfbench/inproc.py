"""Run one workload's set-up and operations inside this process.

    python3 perfbench/inproc.py --workload NAME --order 3,0,2,... \
        --work DIR --result FILE [--trace] [--spans FILE]

Each set-up step and operation is one call of `hpa.cli.main(argv)` under a
root span named `cli.main`.  With --trace the wrappers of tracer.py are
installed first; without it the same calls run bare, which gives the
untraced wall time that the tracing overhead is measured against.  The
result file holds the wall time, each operation's exit code and report
digest, and with --trace the per-layer metrics; spans are kept in memory and
written to --spans at the end.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / 'src'))

import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    GENERATORS, WORKLOADS, input_paths, op_key, resolve)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    ap.add_argument('--order', required=True)
    ap.add_argument('--work', required=True)
    ap.add_argument('--result', required=True)
    ap.add_argument('--trace', action='store_true')
    ap.add_argument('--spans')
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    import hpa.cli
    t = tracing.Tracer() if args.trace else None
    missing = tracing.install(t) if t else []

    def cli(argv):
        if t is None:
            return hpa.cli.main(argv)
        return t.call('cli.main', hpa.cli.main, (argv,), {})

    spec = WORKLOADS[args.workload]
    work = pathlib.Path(args.work)
    made = {name: str(work / name) for name in spec['setup']}
    files = input_paths(args.workload)
    out_path = str(work / 'out.csv')

    ops = []
    report_bytes = 0
    t0 = time.perf_counter()
    for name in spec['setup']:
        code = cli(resolve(GENERATORS[name], made) + ['--out', made[name]])
        if code != 0:
            raise SystemExit(f'set-up of {name} exited {code}')
    for i in [int(x) for x in args.order.split(',')]:
        argv = spec['ops'][i]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli(resolve(argv, files, out_path))
            except Exception as e:  # an op that crashes counts as failed
                print(f'{op_key(argv)}: {e!r}', file=sys.stderr)
                code = -1
        data = buf.getvalue().encode()
        if '{out}' in argv and os.path.exists(out_path):
            with open(out_path, 'rb') as f:
                data = f.read()
            os.remove(out_path)
        report_bytes += len(data)
        ops.append({'op': op_key(argv), 'exit': code,
                    'sha256': hashlib.sha256(data).hexdigest()})
    wall = time.perf_counter() - t0

    result = {'wall_s': wall, 'ops': ops, 'report_bytes': report_bytes,
              'missing_wrappers': missing}
    if t is not None:
        result['metrics'] = tracing.layer_metrics(t)
        result['spans'] = len(t.spans)
        if args.spans:
            with open(args.spans, 'w') as f:
                json.dump(t.spans_json(), f)
    with open(args.result, 'w') as f:
        json.dump(result, f)
    return 0


if __name__ == '__main__':
    sys.exit(main())
