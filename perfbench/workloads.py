"""Inputs and operation lists of the benchmark workloads.

Every quiver input is produced by the `hpa` command line itself.  The
generated files are frozen under perfbench/inputs/ so that each commit times
the same bytes; set-up regenerates them through the CLI into a scratch
directory and checks the algebra they define against the frozen copy.

Argument tokens of the form ``{name}`` name an input file; in an operation
they resolve to the workload's input directory, in a generator to the
scratch directory the set-up writes.  ``{out}`` names a scratch file that an
operation writes instead of stdout.
"""

SUBCOMMANDS = ('check', 'realize', 'homology', 'resolve', 'morse', 'betti',
               'koszul')

# file name -> hpa argv that writes it (to stdout, or to --out during set-up)
GENERATORS = {
    'p11112.quiver': ['toric', '--weights', '[[1,1,1,1,2]]', '--bondal-ruan'],
    'p4.quiver': ['toric', '--weights', '[[1,1,1,1,1]]', '--bondal-ruan'],
    'p2.quiver': ['toric', '--weights', '[[1,1,1]]', '--bondal-ruan'],
    'a4.quiver': ['toric', '--weights', '[[1]]', '--degrees', '[0,1,2,3,4]'],
    'a2.quiver': ['toric', '--weights', '[[1]]', '--degrees', '[0,1,2]'],
    'a4a4.quiver': ['tensor', '{a4.quiver}', '{a4.quiver}', '--emit-quiver'],
    'a2a2.quiver': ['tensor', '{a2.quiver}', '{a2.quiver}', '--emit-quiver'],
    'a2a2a2.quiver': ['tensor', '{a2a2.quiver}', '{a2.quiver}',
                      '--emit-quiver'],
    'f3.quiver': ['toric', '--weights', '[[1,0,1,3],[0,1,0,1]]',
                  '--degrees', '[[0,0],[1,0],[3,1],[4,1]]'],
}

# frozen copies of repository fixtures that no generator produces
COPIED = {
    'f3_matching.json': 'fixtures/f3_matching.json',
    'p113.weights.json': 'fixtures/p113.weights.json',
}

FROZEN_DIR = 'perfbench/inputs'


def _seven(name):
    return [[cmd, '{%s}' % name] for cmd in SUBCOMMANDS]


WORKLOADS = {
    # Bondal-Ruan P(1,1,1,1,2): about 7 path words per class, so parsing,
    # congruence closure, the axiom check and PathPoset division carry about
    # half the time; elimination sees only unit pivots.
    'toric': {
        'inputs': FROZEN_DIR,
        'setup': ['p11112.quiver'],
        'ops': _seven('p11112.quiver'),
    },
    # A4(x)A4 and A2(x)A2(x)A2: few words per class but cells up to
    # dimension 8, so elimination and the resolution checks dominate; 25 and
    # 27 vertices stress the per-vertex-pair loops of betti and morse.
    'product': {
        'inputs': FROZEN_DIR,
        'setup': ['a4.quiver', 'a4a4.quiver', 'a2.quiver', 'a2a2.quiver',
                  'a2a2a2.quiver'],
        'ops': _seven('a4a4.quiver') + _seven('a2a2a2.quiver'),
    },
    # The same layers through other code paths: mod-p elimination,
    # truncated realization, greedy and file-loaded matchings, CSV output,
    # the toric weight report and an explicit degree list.  `check` on P^4
    # and `koszul` on F3 (the minimal-linear Morse certificate) keep every
    # per-subcommand time nonzero here.  Runnable by name, but not listed in
    # BENCHMARK.json: a full set of benchmark runs of three workloads this
    # long does not fit its time limit (see README.md).
    'variants': {
        'inputs': FROZEN_DIR,
        'setup': ['p11112.quiver', 'p4.quiver', 'a4.quiver', 'a4a4.quiver',
                  'a2.quiver', 'a2a2.quiver', 'a2a2a2.quiver', 'f3.quiver'],
        'ops': [
            ['homology', '{p11112.quiver}', '--ring', 'Fp:2'],
            ['homology', '{a4a4.quiver}', '--ring', 'Fp:3', '--max-dim', '5'],
            ['realize', '{p11112.quiver}', '--max-dim', '3'],
            ['resolve', '{p11112.quiver}', '--max-dim', '3'],
            ['morse', '{p4.quiver}', '--matching', 'greedy', '--ring', 'Fp:2'],
            ['morse', '{f3.quiver}', '--matching', '{f3_matching.json}',
             '--ring', 'Fp:2'],
            ['betti', '{a2a2a2.quiver}', '--out', '{out}'],
            ['toric', '--weights', '{p113.weights.json}'],
            ['toric', '--weights', '[[1,0,1,3],[0,1,0,1]]',
             '--degrees', '[[0,0],[1,0],[3,1],[4,1]]'],
            ['check', '{p4.quiver}'],
            ['koszul', '{f3.quiver}'],
        ],
    },
    # Quick mode: the repository fixtures, a few seconds in all.
    'smoke': {
        'inputs': 'fixtures',
        'setup': ['p2.quiver', 'f3.quiver'],
        'ops': _seven('p2.quiver') + _seven('f3.quiver') + [
            ['morse', '{f3.quiver}', '--matching', '{f3_matching.json}'],
        ],
    },
}

MAIN_WORKLOADS = ('toric', 'product', 'variants')

# Operations that exit 1 only because of the known `hpa morse` defect
# (README.md): the quasi-isomorphism check compares homology dicts that
# include zero-rank degrees.  Their reference also accepts the fixed form.
KNOWN_DEFECTS = ('morse {p11112.quiver}', 'morse {a4a4.quiver}',
                 'morse {a2a2a2.quiver}')


def op_key(argv):
    """Stable name of an operation, used to key its reference digest."""
    return ' '.join(argv)


def resolve(argv, files, out=None):
    """Substitute ``{name}`` tokens from `files` and ``{out}`` with `out`."""
    res = []
    for tok in argv:
        if tok == '{out}':
            res.append(out)
        elif tok.startswith('{') and tok.endswith('}'):
            res.append(files[tok[1:-1]])
        else:
            res.append(tok)
    return res


def input_paths(workload):
    """{name: path from the repository root} of every ``{name}`` file the
    workload's operations read."""
    spec = WORKLOADS[workload]
    return {tok[1:-1]: f"{spec['inputs']}/{tok[1:-1]}"
            for argv in spec['ops'] for tok in argv
            if tok.startswith('{') and tok != '{out}'}
