"""Run one `python -m hpa.cli ...` and print its wall time and peak RSS.

    python tools/peak.py [--max-mb MB] -- resolve p5.quiver --out p5.json

The command runs as the only child of this small process, with the `src`
of this checkout first on PYTHONPATH, and is reaped with os.wait4.  Linux
carries a parent's RSS high-water mark into its children, so the figure is
the child's own peak only while the parent stays smaller than it; this
launcher imports nothing of hpa, so its own footprint is that of a bare
interpreter (about 10 MB).

One JSON line goes to stderr: {"argv", "exit", "wall_s", "peak_rss_mb"},
MB meaning 2^20 bytes.  The child's stdout and stderr pass through.  The
exit status is the child's, or 1 when the child succeeds but its peak RSS
is above --max-mb.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / 'src'


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--max-mb', type=float, default=None,
                        help='fail when the peak RSS is above this many MB')
    parser.add_argument('args', nargs='+', help='arguments of hpa.cli')
    opts = parser.parse_args(argv)
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [str(SRC)] + ([env['PYTHONPATH']] if env.get('PYTHONPATH') else []))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, '-m', 'hpa.cli'] + opts.args,
                             env=env)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    # reaped here: tell Popen, so that it does not wait for the child too
    child.returncode = code = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    print(json.dumps({'argv': opts.args, 'exit': code,
                      'wall_s': round(wall, 3),
                      'peak_rss_mb': round(peak, 1)}), file=sys.stderr)
    if code:
        return code if code > 0 else 128 - code
    if opts.max_mb is not None and peak > opts.max_mb:
        print(f"peak RSS {peak:.1f} MB is above the ceiling of "
              f"{opts.max_mb:g} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == '__main__':
    sys.exit(main())
