"""Spans and counters around the public functions of each `hpa` module.

The wrappers are installed from here, at run time, into an already imported
`hpa` package; nothing in src/hpa knows about them.  A span records
(name, start, end, parent) in memory; a layer's self time is the summed
duration of its spans minus the time their child spans cover.  Hot
per-element methods get counters only.
"""

import functools
import sys
import time
import weakref
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index or None]
        self._stack = []
        self.counters = defaultdict(int)
        self._matrices = weakref.WeakSet()

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """{span name: summed self time in seconds}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def spans_json(self):
        return [{'name': n, 'start': s, 'end': e, 'parent': p}
                for n, s, e, p in self.spans]

    # -- result hooks: counts taken where the work happens --------------------

    def matrix(self, mat, rank):
        c = self.counters
        c['linalg.eliminations'] += 1
        c['linalg.nnz'] += mat.nnz()
        c['linalg.rank_total'] += rank
        if mat not in self._matrices:
            self._matrices.add(mat)
            c['linalg.matrices'] += 1


def _on_enumerate(t, args, res):
    t.counters['quiver.words'] += len(res)


def _on_closure(t, args, res):
    t.counters['algebra.closure_words'] += len(res.class_of_word)
    t.counters['algebra.classes'] += len(res.classes)


def _on_realization(t, args, res):
    t.counters['realization.cells'] += sum(res.counts())


def _on_rank(t, args, res):
    t.matrix(args[0], res)


def _on_factors(t, args, res):
    t.matrix(args[0], len(res))


def _on_snf(t, args, res):
    m = args[0]
    if m and m[0]:
        t.counters['linalg.snf_core_entries'] += len(m) * len(m[0])


def _on_homotopy(t, args, res):
    t.counters['resolution.homotopy_checked'] += res.checked


def _on_matching(t, args, res):
    t.counters['morse.pairs'] += len(res.pairs)


def _on_morse_complex(t, args, res):
    t.counters['morse.criticals'] += sum(res.counts())
    t.counters['morse.complex_cells'] += sum(args[0].complex.counts())


def _count(name):
    def hook(t, args, res):
        t.counters[name] += 1
    return hook


def _on_order_complex(t, args, res):
    t.counters['invariants.order_complex_simplices'] += sum(args[0].counts())


# (module, attribute, span name or None for a counter only, result hook)
WRAPPED = [
    ('dsl', 'parse_quiver', 'dsl.parse', None),
    ('quiver', 'enumerate_paths', 'quiver.enumerate', _on_enumerate),
    ('algebra', 'congruence_closure', 'algebra.closure', _on_closure),
    ('algebra', 'check_hpa', 'algebra.check', None),
    ('algebra', 'PathPoset.divide_or_none', None,
     _count('algebra.divide_calls')),
    ('realization', 'build_realization', 'realization.build', _on_realization),
    ('realization', 'cw_chain_complex', 'realization.chain_complex', None),
    ('linalg', 'integer_rank', 'linalg.elim', _on_rank),
    ('linalg', 'invariant_factors', 'linalg.elim', _on_factors),
    ('linalg', 'modp_rank', 'linalg.elim', _on_rank),
    ('linalg', 'snf_diagonal', 'linalg.snf', _on_snf),
    ('resolution', 'verify_d_squared', 'resolution.d2', None),
    ('resolution', 'contracting_homotopy_check', 'resolution.homotopy',
     _on_homotopy),
    ('resolution', 'simple_tensor_complex', 'resolution.tensor_simples',
     _count('resolution.tensor_simples_calls')),
    ('morse', 'babson_hersh_matching', 'morse.matching', _on_matching),
    ('morse', 'greedy_internal_matching', 'morse.matching', _on_matching),
    ('morse', 'load_matching', 'morse.matching', _on_matching),
    ('morse', 'check_acyclic', 'morse.acyclic', None),
    ('morse', 'morse_complex', 'morse.complex', _on_morse_complex),
    ('morse', 'check_internal', 'morse.checks', None),
    ('morse', 'check_minimal', 'morse.checks', None),
    ('morse', 'check_linear', 'morse.checks', None),
    ('invariants', 'betti_table', 'invariants.betti', None),
    ('invariants', 'tor_via_intervals', None,
     _count('invariants.tor_interval_calls')),
    ('invariants', 'OrderComplex.__init__', None, _on_order_complex),
    ('invariants', 'el_shellability_certificate', None,
     _count('invariants.el_intervals')),
    ('invariants', 'koszul_check', 'invariants.koszul', None),
    ('toric', 'bondal_ruan_hpa', 'toric.build', None),
    ('toric', 'build_toric_hpa', 'toric.build', None),
    ('toric', 'image_phi', 'toric.proper', None),
    ('toric', 'check_cohomologically_proper', 'toric.proper', None),
]


def _wrap(tracer, fn, span, hook):
    if span is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            hook(tracer, args, res)
            return res
        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        res = tracer.call(span, fn, args, kwargs)
        if hook is not None:
            hook(tracer, args, res)
        return res
    return spanned


def install(tracer):
    """Wrap every function in WRAPPED and `jsonschema.validate`.

    A module-level function is replaced in its own module and in every `hpa`
    module that imported it by name.  A name that no longer exists is
    skipped, so its metric reads 0 instead of failing the run; the returned
    list names what was skipped.
    """
    import jsonschema
    hpa_modules = [m for name, m in sorted(sys.modules.items())
                   if name == 'hpa' or name.startswith('hpa.')]
    missing = []
    for modname, attr, span, hook in WRAPPED:
        mod = sys.modules.get(f'hpa.{modname}')
        owner_name, _, name = attr.rpartition('.')
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, name, None)
        if fn is None:
            missing.append(f'{modname}.{attr}')
            continue
        new = _wrap(tracer, fn, span, hook)
        setattr(owner, name, new)
        if not owner_name:
            for m in hpa_modules:
                for k, v in list(vars(m).items()):
                    if v is fn:
                        setattr(m, k, new)
    jsonschema.validate = _wrap(tracer, jsonschema.validate, 'cli.validate',
                                None)
    return missing


SPANS = ('dsl.parse', 'quiver.enumerate', 'algebra.closure', 'algebra.check',
         'realization.build', 'realization.chain_complex', 'linalg.elim',
         'linalg.snf', 'resolution.d2', 'resolution.homotopy',
         'resolution.tensor_simples', 'morse.matching', 'morse.acyclic',
         'morse.complex', 'morse.checks', 'invariants.betti',
         'invariants.koszul', 'toric.build', 'toric.proper', 'cli.validate')
COUNTS = ('quiver.words', 'algebra.classes', 'algebra.divide_calls',
          'realization.cells', 'linalg.matrices', 'linalg.eliminations',
          'linalg.nnz', 'linalg.rank_total', 'linalg.snf_core_entries',
          'resolution.homotopy_checked', 'resolution.tensor_simples_calls',
          'morse.pairs', 'morse.criticals', 'invariants.tor_interval_calls',
          'invariants.order_complex_simplices', 'invariants.el_intervals')
RATIOS = {  # name: (numerator counter, denominator counter)
    'algebra.words_per_class': ('algebra.closure_words', 'algebra.classes'),
    'linalg.elims_per_matrix': ('linalg.eliminations', 'linalg.matrices'),
    'morse.critical_ratio': ('morse.criticals', 'morse.complex_cells'),
}


def layer_metrics(tracer):
    """{name: (value, unit)} of the traced run's per-layer numbers.

    `*_s` is self time; `cli.other_s` is the self time of the root span of
    each CLI call, i.e. argument parsing, report building and whatever no
    wrapped function covers.
    """
    st = tracer.self_times()
    c = tracer.counters
    m = {name + '_s': (st.get(name, 0.0), 's') for name in SPANS}
    m['cli.other_s'] = (st.get('cli.main', 0.0), 's')
    m.update((name, (c[name], 'count')) for name in COUNTS)
    for name, (num, den) in RATIOS.items():
        m[name] = (c[num] / c[den] if c[den] else 0.0, 'ratio')
    return m
