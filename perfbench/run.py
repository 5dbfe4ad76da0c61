"""The hpa benchmark: fixed lists of `hpa` CLI invocations, one at a time.

    python3 perfbench/run.py --workload {toric,product,variants} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --quick

Run it from anywhere; it works on the checkout that holds it (src/hpa next to
perfbench/).  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
what was run (git SHA, source digest, Python, nproc, per-op exit codes).  A
full record also goes to .perfbench/results/.  See perfbench/README.md for
the workloads and metrics.

This process and every process it starts run on one CPU.  Each timed `hpa`
process runs between two calibration readings on that CPU, and its time is
reported in reference seconds: the measured seconds times REF_CAL_S over
the mean of the two readings.  A reading is the geometric mean of the times
of a fixed pure-Python loop and of starting a bare interpreter; neither
touches src/hpa.  That removes most of the drift in speed of a shared core
(see README.md); the measured seconds are kept in the full record.

--trace 0 (end-to-end): set-up is timed SETUP_REPS times and its median
reported.  Then the operation list runs pass after pass, in an order drawn
from --seed, at least MIN_PASSES times and then until the next operation
would end after --seconds.  Each operation is its own `python3 -m hpa.cli`
process, reaped with os.wait4 for its peak RSS.
An operation's time is the median of its runs; `wall_s` is the sum of
those medians, the time of one pass over the list.

--trace 1 (per layer): the set-up and one pass run in-process twice, bare
and with the wrappers of tracer.py; the difference of the two wall times is
the tracing overhead.

--quick runs the `smoke` workload on the repository fixtures once each way
and prints every end-to-end and per-layer metric.

The seed only permutes operation order; inputs are frozen files.  Every
report is compared with its digest in reference.json; an operation fails
when its exit code or digest differs from the reference's.  `correct` is true when every
report and exit code matches the reference and every regenerated input
defines the same algebra as its frozen copy.  The operations of the known
`hpa morse` defect (workloads.KNOWN_DEFECTS) match when they reproduce the
defect or give its fixed form; they do not fail, but they lower `ok_ratio`
until the defect is fixed.
"""

import argparse
import hashlib
import itertools
import json
import os
import pathlib
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    FROZEN_DIR, GENERATORS, MAIN_WORKLOADS, SUBCOMMANDS, WORKLOADS,
    input_paths, op_key, resolve)

SETUP_REPS = 5
MIN_PASSES = 3
STARTUP_REPS = 5
# a calibration reading takes about REF_CAL_S on an uncontended 2.1 GHz
# x86-64 core, which makes a reference second about a second there
REF_CAL_S = 0.045
# stop starting work after this long, so the run ends within 180 s
DEADLINE_S = 165.0
# CPUs this process may use, counted before main() pins it to one
NPROC = len(os.sched_getaffinity(0))


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken checkout)."""


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def file_sha256(path):
    with open(path, 'rb') as f:
        return sha256(f.read())


def calibration_loop():
    """Fixed pure-Python work of the kind hpa does (tuples, sorting, dicts
    of sets, a few MB of objects); returns its wall time."""
    t0 = time.perf_counter()
    rows = sorted((i * 7919 % 100003, i % 97, str(i)) for i in range(30_000))
    groups = {}
    for a, b, _ in rows:
        groups.setdefault(b, set()).add(frozenset((a, b)))
    return time.perf_counter() - t0


def calibration_process():
    """Wall time of starting an interpreter that imports a few standard
    modules, as every `hpa` process does before its own work."""
    t0 = time.perf_counter()
    p = subprocess.Popen([sys.executable, '-c',
                          'import argparse, fractions, itertools, json'])
    try:
        _, status, _ = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    p.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - t0


def calibrate():
    """One calibration reading.  The loop alone moves about twice as much
    as an hpa process when a shared core slows down, the interpreter start
    alone a little more; their geometric mean moves in proportion."""
    return (calibration_loop() * calibration_process()) ** 0.5


def algebra_signature(text):
    """Class count per (tail index, head index) vertex pair: what the CLI's
    regenerated input must reproduce, independent of how it spells the
    relations."""
    from hpa.algebra import from_document
    a = from_document(text)
    pos = {v: i for i, v in enumerate(a.quiver.vertices)}
    sig = {}
    for c in a.classes:
        key = f'{pos[c.tail]}|{pos[c.head]}'
        sig[key] = sig.get(key, 0) + 1
    return sig


class Runner:
    def __init__(self, workload, seed, work, deadline):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / 'src'),
                        PYTHONHASHSEED='0')
        self.reference = json.loads((HERE / 'reference.json').read_text())
        self.problems = []   # why `correct` is false, if it is
        self.calibrations = []
        self.last_reading = None
        self.known_defects = 0   # runs that reproduced a known defect

    # -- child processes ----------------------------------------------------

    def _remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError('time limit reached')
        return left

    def spawn(self, cmd, stdout_path):
        """Run cmd to completion; returns (seconds, exit code, peak RSS MB)."""
        timeout = self._remaining()
        err_path = self.work / 'stderr.txt'
        with open(stdout_path, 'wb') as out, open(err_path, 'wb') as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                 cwd=ROOT)
            timer = threading.Timer(timeout, p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        p.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = err_path.read_text(errors='replace')[-300:].strip()
            if tail:
                print(f'exit {code}: {" ".join(cmd[1:])}\n{tail}',
                      file=sys.stderr)
        return seconds, code, usage.ru_maxrss / 1024.0

    def hpa(self, argv, stdout_path):
        return self.spawn([sys.executable, '-m', 'hpa.cli'] + argv,
                          stdout_path)

    def timed_hpa(self, argv, stdout_path):
        """hpa() between two calibration readings, the first shared with
        the previous call; returns (reference seconds, seconds, exit code,
        peak RSS MB)."""
        before = self.last_reading or calibrate()
        seconds, code, rss = self.hpa(argv, stdout_path)
        self.last_reading = calibrate()
        cal = (before + self.last_reading) / 2
        self.calibrations.append(cal)
        return seconds * REF_CAL_S / cal, seconds, code, rss

    # -- inputs ---------------------------------------------------------------

    def check_frozen(self):
        for name, ref in self.reference['inputs'].items():
            path = ROOT / FROZEN_DIR / name
            if not path.is_file() or file_sha256(path) != ref['sha256']:
                self.problems.append(f'frozen input {name} changed')

    def setup(self, reps):
        """Regenerate the workload's inputs through the CLI `reps` times;
        returns the median wall time of one complete regeneration."""
        times = []
        first = {}
        for rep in range(reps):
            d = self.work / f'setup{rep}'
            d.mkdir()
            made = {n: str(d / n) for n in self.spec['setup']}
            total = 0.0
            for name in self.spec['setup']:
                argv = resolve(GENERATORS[name], made) + ['--out', made[name]]
                seconds, _, code, _ = self.timed_hpa(argv, d / 'stdout.txt')
                total += seconds
                if code != 0:
                    raise BenchError(f'set-up of {name} exited {code}')
            times.append(total)
            for name in self.spec['setup']:
                data = pathlib.Path(made[name]).read_bytes()
                if rep == 0:
                    first[name] = data
                    want = self.reference['signatures'][name]
                    if algebra_signature(data.decode()) != want:
                        self.problems.append(
                            f'regenerated {name} defines another algebra')
                elif data != first[name]:
                    self.problems.append(f'set-up of {name} not reproducible')
        return statistics.median(times)

    # -- operations -----------------------------------------------------------

    def verify(self, key, code, digest):
        """Compare one report with the reference; returns (matches, ok).
        `matches` is false, and the mismatch recorded, when the report or
        exit code is not the reference's, nor for a known defect its fixed
        form (exit 0).  `ok` is true when it matches and exits 0."""
        ref = self.reference['reports'][key]
        if code == 0 and digest == ref.get('fixed_sha256'):
            return True, True
        if digest != ref['sha256'] or code != ref['exit']:
            self.problems.append(f'{key}: exit {code} / digest {digest[:12]} '
                                 f"(reference exit {ref['exit']} / "
                                 f"{ref['sha256'][:12]})")
            return False, False
        if code != 0:
            self.known_defects += 1
        return True, code == 0

    def sample(self, seconds, quick=False):
        """Run the operation list pass after pass in an order drawn from
        the seed: MIN_PASSES passes (one if `quick`), then more while the
        next operation fits in `seconds`.  Every operation gets about as many
        runs, which keeps the per-subcommand medians about equally steady."""
        ops = self.spec['ops']
        files = input_paths(self.workload)
        out_path = self.work / 'out.csv'
        stdout_path = self.work / 'stdout.txt'
        order = list(range(len(ops)))
        self.rng.shuffle(order)
        times = [[] for _ in ops]   # reference seconds
        raw = [[] for _ in ops]     # measured seconds
        codes = [[] for _ in ops]
        bad = [False] * len(ops)
        peak = 0.0
        attempted = failed = 0
        start = time.monotonic()
        for n in itertools.count():
            i = order[n % len(ops)]
            if n >= (1 if quick else MIN_PASSES) * len(ops):
                if quick or (time.monotonic() - start
                             + statistics.median(raw[i]) > seconds):
                    break
            argv = resolve(ops[i], files, str(out_path))
            sec, measured, code, rss = self.timed_hpa(argv, stdout_path)
            src = out_path if '{out}' in ops[i] else stdout_path
            digest = file_sha256(src) if src.exists() else ''
            if src == out_path and src.exists():
                src.unlink()
            times[i].append(sec)
            raw[i].append(measured)
            codes[i].append(code)
            peak = max(peak, rss)
            attempted += 1
            matches, ok = self.verify(op_key(ops[i]), code, digest)
            failed += not matches
            bad[i] |= not ok
        med = [statistics.median(ts) for ts in times]
        metrics = {'wall_s': (sum(med), 's'),
                   'peak_rss_mb': (peak, 'MB'),
                   'ok_ratio': (bad.count(False) / len(ops), 'ratio')}
        for cmd in SUBCOMMANDS:
            metrics[f'{cmd}_s'] = (sum(t for argv, t in zip(ops, med)
                                       if argv[0] == cmd), 's')
        info = {'order': order,
                'samples': {op_key(a): ts for a, ts in zip(ops, times)},
                'measured_samples': {op_key(a): ts
                                     for a, ts in zip(ops, raw)},
                'exit_codes': {op_key(a): cs for a, cs in zip(ops, codes)}}
        return metrics, attempted, failed, info

    # -- traced run -----------------------------------------------------------

    def startup(self):
        times = [self.hpa(['--version'], self.work / 'stdout.txt')[0]
                 for _ in range(STARTUP_REPS)]
        return statistics.median(times)

    def inproc(self, order, trace, spans_path=None):
        result_path = self.work / f'inproc{int(trace)}.json'
        cmd = [sys.executable, str(HERE / 'inproc.py'),
               '--workload', self.workload, '--work', str(self.work),
               '--order', ','.join(map(str, order)),
               '--result', str(result_path)]
        if trace:
            cmd.append('--trace')
            if spans_path:
                cmd += ['--spans', str(spans_path)]
        _, code, _ = self.spawn(cmd, self.work / 'inproc_stdout.txt')
        if code != 0:
            raise BenchError(f'in-process run exited {code}')
        return json.loads(result_path.read_text())

    def traced(self, spans_path):
        order = list(range(len(self.spec['ops'])))
        self.rng.shuffle(order)
        startup = self.startup()
        bare = self.inproc(order, trace=False)
        traced = self.inproc(order, trace=True, spans_path=spans_path)
        attempted = failed = 0
        for res in (bare, traced):
            for op in res['ops']:
                attempted += 1
                matches, _ = self.verify(op['op'], op['exit'], op['sha256'])
                failed += not matches
        metrics = {name: tuple(vu) for name, vu in traced['metrics'].items()}
        metrics['cli.startup_s'] = (startup, 's')
        metrics['cli.report_bytes'] = (traced['report_bytes'], 'bytes')
        metrics['trace.untraced_wall_s'] = (bare['wall_s'], 's')
        metrics['trace.traced_wall_s'] = (traced['wall_s'], 's')
        metrics['trace.overhead_s'] = (traced['wall_s'] - bare['wall_s'], 's')
        info = {'order': order, 'spans': traced['spans'],
                'missing_wrappers': traced['missing_wrappers'],
                'exit_codes': {op['op']: op['exit'] for op in traced['ops']}}
        return metrics, attempted, failed, info


def describe():
    """What was run: enough to tell two results apart."""
    h = hashlib.sha256()
    for path in sorted((ROOT / 'src' / 'hpa').rglob('*')):
        if path.is_file() and '__pycache__' not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b'\0')
            h.update(path.read_bytes())
    sha = None
    try:
        top = subprocess.run(['git', 'rev-parse', '--show-toplevel', 'HEAD'],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and pathlib.Path(lines[0]) == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {'git_sha': sha, 'src_sha256': h.hexdigest(),
            'python': platform.python_version(),
            'nproc': NPROC}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', choices=MAIN_WORKLOADS)
    ap.add_argument('--seed', type=int, default=0)
    ap.add_argument('--seconds', type=float, default=55.0)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--quick', action='store_true',
                    help='smoke workload on the fixtures, every metric')
    args = ap.parse_args(argv)
    if not args.quick and args.workload is None:
        ap.error('--workload is required unless --quick is given')
    if not (ROOT / 'src' / 'hpa' / 'cli.py').is_file():
        print(f'error: no src/hpa under {ROOT}', file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / 'src'))

    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for this process and every child, so that the calibration
    # readings come from the core the operations run on
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as e:
        print(f'warning: cannot pin to one CPU ({e}); timings will drift '
              'more', file=sys.stderr)
    workload = 'smoke' if args.quick else args.workload
    deadline = time.monotonic() + DEADLINE_S
    results = ROOT / '.perfbench' / 'results'
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / '.perfbench' / f'work-{os.getpid()}'
    work.mkdir(parents=True)
    stamp = f'{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}'
    try:
        r = Runner(workload, args.seed, work, deadline)
        if r.hpa(['--version'], work / 'stdout.txt')[1] != 0:
            raise BenchError('`python3 -m hpa.cli --version` failed')
        if not args.quick:
            r.check_frozen()
        metrics, attempted, failed, info = {}, 0, 0, {}
        if args.quick or args.trace == 0:
            setup_s = r.setup(1 if args.quick else SETUP_REPS)
            m, a, f, info['end_to_end'] = r.sample(args.seconds, args.quick)
            metrics.update(m, setup_s=(setup_s, 's'))
            attempted += a
            failed += f
        if args.quick or args.trace == 1:
            m, a, f, info['per_layer'] = r.traced(
                results / f'{stamp}-spans.json')
            metrics.update(m)
            attempted += a
            failed += f
    except BenchError as e:
        print(f'error: {e}', file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {'workload': workload, 'seed': args.seed,
              'seconds': args.seconds, 'trace': args.trace, **describe(),
              'problems': r.problems, 'known_defect_runs': r.known_defects,
              'calibration_s': (statistics.median(r.calibrations)
                                if r.calibrations else None), **info}
    out = {'correct': not r.problems, 'attempted': attempted,
           'failed': failed,
           'metrics': {k: {'value': v, 'unit': u}
                       for k, (v, u) in sorted(metrics.items())}}
    (results / f'{stamp}.json').write_text(
        json.dumps({**record, 'result': out}, indent=1, sort_keys=True))
    print(json.dumps({'run': {k: record[k] for k in (
        'workload', 'seed', 'git_sha', 'src_sha256', 'python', 'nproc',
        'known_defect_runs', 'calibration_s')},
        'problems': r.problems[:5]}))
    print(json.dumps(out))
    return 0


if __name__ == '__main__':
    sys.exit(main())
