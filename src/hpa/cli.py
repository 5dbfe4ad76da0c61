"""Command-line front end.

Every subcommand reads a quiver document (or weight data), runs one of the
library pipelines and writes a JSON report -- except `toric`/`tensor` in
quiver-emitting mode, which write the DSL text itself.  Reports carry no
timestamps and are emitted with sorted keys, so identical input and flags
give byte-identical output.  Each report is validated against the schema of
the same name shipped under hpa/schemas/, then streamed to stdout or to the
--out file (UTF-8), which is opened only once the report has passed.

Exit codes: 0 success, 1 mathematical failure (axiom violation, rejected
matching, failed verification), 2 usage or I/O errors.  Every subcommand
that builds on the algebra first refuses a non-cancellative one (exit 1).

Import rule: at the top, this module imports only the standard library and
the package root.  Each `cmd_*` function imports the layers it runs, so a
process loads (and, without cached bytecode, compiles) only those:
`--version` none, `check` and `tensor` the algebra, quiver, DSL and schema
modules, `realize` those and the realization, `resolve` those and the
resolution, and `homology` the realization and linear algebra.  Only what eliminates
loads the linear algebra, and no subcommand loads Python's rational
arithmetic: the toric LPs, like the linear algebra, run on Python ints.
The toric layer is loaded by `toric`, and by `koszul` only for an algebra
built from weight data, which a quiver file never is.  Only `resolve`
numbers the cells (resolution.BimoduleComplex); `realize` names them from
the quotient rows and writes them a chunk at a time, as json.dump would.
A layer imported by name at the top of this module would be loaded by
every subcommand.
Importing this module registers every layer not yet imported as a lazy
module (`LAYERS`), which runs its code on first attribute access, so that
in-process tools that look layers up in sys.modules, such as the tracer
of perfbench/, find them all.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import sys

from . import RING_Z, UsageError, __version__, parse_ring, ring_name

# every module of the package but its root and this one
LAYERS = ('algebra', 'dsl', 'invariants', 'linalg', 'morse', 'quiver',
          'realization', 'resolution', 'schema', 'toric')


def _register_lazily(package):
    """Put each layer that is not imported yet into sys.modules, and onto
    the package, as a lazy module: its code is compiled and run on the
    first access to one of its attributes."""
    for name in LAYERS:
        full = f'{package.__name__}.{name}'
        if full in sys.modules:
            continue
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(package, name, module)
        spec.loader.exec_module(module)


_register_lazily(sys.modules[__package__])


def _header(command):
    return {'command': command, 'version': __version__, 'schema_version': 1}


def _schema(command):
    path = os.path.join(os.path.dirname(__file__), 'schemas', f'{command}.json')
    with open(path) as f:
        return json.load(f)


def _validated(command, payload):
    # the report, header and payload, once it has passed its schema
    from .schema import validate
    payload = {'header': _header(command), **payload}
    validate(payload, _schema(command))
    return payload


def _emit(args, command, payload, code=0):
    # validate the payload itself, then stream it: a bad report writes nothing
    payload = _validated(command, payload)
    with _output(args) as out:
        json.dump(payload, out, indent=1, sort_keys=True)
        out.write('\n')
    return code


def _write(args, text):
    # DSL or CSV text as UTF-8 whatever the locale, on stdout as in a file
    with _output(args) as out:
        if hasattr(out, 'buffer'):
            out.flush()
            out.buffer.write(text.encode('utf-8'))
        else:
            out.write(text)


def _output(args):
    """The --out file, written as UTF-8 whatever the locale, or stdout."""
    if getattr(args, 'out', None):
        return open(args.out, 'w', encoding='utf-8')
    return contextlib.nullcontext(sys.stdout)


def _load(path):
    from .algebra import from_document
    with open(path, encoding='utf-8') as f:
        return from_document(f.read())


def _load_hpa(path):
    """Load an algebra and refuse it unless it is cancellative."""
    from .algebra import require_cancellative
    return require_cancellative(_load(path))


def _check_json(rep, label):
    return {'ok': rep.ok, 'checked': rep.checked, 'label': label,
            'failures': [repr(f) for f in rep.witnesses[:20]]}


def _homology_json(h):
    return {str(k): [rank, list(tors)] for k, (rank, tors) in sorted(h.items())}


def cmd_check(args):
    from .algebra import cancellation_summary, check_hpa
    a = _load(args.input)
    rep = check_hpa(a)
    payload = {'ok': rep.ok, 'summary': cancellation_summary(rep),
               'report': {'ok': rep.ok, 'violations': [
                   v.to_json() for v in rep.witnesses]}}
    return _emit(args, 'check', payload, 0 if rep.ok else 1)


# names per write of the realize report, which bounds the text held
_CHUNK = 4096


def cmd_realize(args):
    from json.encoder import encode_basestring_ascii
    from .realization import cell_names, class_name, euler_characteristic
    a = _load_hpa(args.input)
    # cell names built from the JSON encodings of the class names are their
    # own encodings, as '[', ' < ' and ']' are
    cells, truncated = cell_names(a, args.max_dim, lambda c: (
        encode_basestring_ascii(class_name(c))[1:-1]))
    counts = [len(names) for names in cells]
    report = _validated('realize', {
        'cells': cells, 'counts': counts,
        'euler': euler_characteristic(counts), 'truncated': truncated})
    # the bytes of json.dump(report, indent=1, sort_keys=True): 'cells',
    # the first key, a chunk of names at a time, then the rest through json
    rest = json.dumps({k: v for k, v in report.items() if k != 'cells'},
                      indent=1, sort_keys=True)
    with _output(args) as out:
        out.write('{\n "cells": [')
        for k, names in enumerate(cells):
            out.write(',\n  [' if k else '\n  [')
            for i in range(0, len(names), _CHUNK):
                out.write((',\n   "' if i else '\n   "') +
                          '",\n   "'.join(names[i:i + _CHUNK]) + '"')
            out.write('\n  ]' if names else ']')
        out.write('\n ],\n' + rest[2:] + '\n')
    return 0


def cmd_homology(args):
    from .realization import euler_characteristic, realization_homology
    a = _load_hpa(args.input)
    h, counts, truncated = realization_homology(a, args.ring, args.max_dim)
    payload = {'ring': ring_name(args.ring),
               'homology': _homology_json(h),
               'euler': euler_characteristic(counts),
               'truncated': truncated}
    return _emit(args, 'homology', payload)


def cmd_resolve(args):
    from .resolution import cellular_resolution, check_resolution
    c = cellular_resolution(_load_hpa(args.input), args.max_dim)
    d2, homotopy = check_resolution(c)
    payload = {'generators': c.counts(),
               'truncated': c.truncated,
               'd_squared': _check_json(d2, "d^2 = 0"),
               'contracting_homotopy': None if homotopy is None else
                   _check_json(homotopy, "d h + h d = id")}
    ok = d2.ok and (homotopy is None or homotopy.ok)
    return _emit(args, 'resolve', payload, 0 if ok else 1)


def cmd_morse(args):
    from .invariants import nonzero_groups, tor_table
    from .morse import (MorseComplex, babson_hersh_matching, check_linear,
                        check_minimal, greedy_internal_matching,
                        load_matching)
    from .linalg import homology
    from .realization import format_chain
    from .resolution import simple_tensor_complex, verify_d_squared
    a = _load_hpa(args.input)
    if args.matching == 'bh':
        m, strategy = babson_hersh_matching(a, args.max_dim), 'babson-hersh'
    elif args.matching == 'greedy':
        m, strategy = greedy_internal_matching(a, args.max_dim), 'greedy'
    else:
        m, strategy = load_matching(args.matching, a, args.max_dim), 'fixture'
    payload = {'matching': {'strategy': strategy, 'pairs': len(m.pairs)},
               'internal': {'ok': m.internal.ok,
                            'witnesses': m.internal.witnesses},
               'acyclic': {'ok': m.acyclic.ok}}
    if not m.acyclic.ok:
        payload['acyclic']['cycle'] = [
            format_chain(a, c) for c in m.acyclic.witnesses[0]]
    if not (m.internal.ok and m.acyclic.ok):
        payload.update(dict.fromkeys((
            'criticals', 'd_squared', 'quasi_iso', 'minimal', 'linear')))
        return _emit(args, 'morse', payload, 1)
    mc = MorseComplex(m)
    d2 = verify_d_squared(mc)
    # S_v (x) M (x) S_w has the homology of Tor on each pair a class joins,
    # nonzero groups compared; a truncated complex only below its cap
    below = mc.max_dim if mc.truncated else float('inf')

    def low(groups):
        return {i: g for i, g in groups.items() if i < below}
    blocks, boundary = simple_tensor_complex(mc)
    quasi_ok = all(
        low(nonzero_groups(homology(
            blocks.get(pair, []), boundary, args.ring))) == low(tor)
        for pair, tor in tor_table(a, args.ring).items())
    # minimal and linear describe the algebra, which a capped complex does
    # not show; linear needs a grading by path length
    minimal = linear = None
    if not mc.truncated:
        minimal = check_minimal(mc).ok
        linear = check_linear(mc).ok if a.graded else None
    payload['matching']['pairs'] = mc.pairs
    payload.update({
        'criticals': mc.counts(),
        'd_squared': _check_json(d2, "d^2 = 0"),
        'quasi_iso': {'ok': quasi_ok, 'ring': ring_name(args.ring),
                      'vertex_pairs': len(a.quiver.vertices) ** 2},
        'minimal': minimal,
        'linear': linear,
    })
    ok = d2.ok and quasi_ok
    return _emit(args, 'morse', payload, 0 if ok else 1)


def cmd_betti(args):
    from .invariants import betti_table
    a = _load_hpa(args.input)
    bt = betti_table(a)
    if args.out and args.out.endswith('.csv'):
        _write(args, bt.to_csv())
        return 0
    return _emit(args, 'betti', bt.to_json())


def cmd_koszul(args):
    from .invariants import koszul_check
    a = _load_hpa(args.input)
    verdict = koszul_check(a)
    return _emit(args, 'koszul', verdict.to_json())


def _weight_data(args):
    from .toric import WeightData, weight_data_from_json
    if args.weights.lstrip().startswith('['):
        w, degrees = WeightData(json.loads(args.weights)), None
    else:
        with open(args.weights, encoding='utf-8') as f:
            w, degrees = weight_data_from_json(json.load(f))
        if degrees is not None and args.bondal_ruan:
            raise ValueError("--bondal-ruan takes the half-open-zonotope "
                             "collection, but the weights file lists "
                             "'degrees'")
    if args.degrees is not None:
        degrees = json.loads(args.degrees)
        if not isinstance(degrees, list):
            raise ValueError("--degrees must be a JSON list")
        degrees = [w.degree(d if isinstance(d, list) else [d])
                   for d in degrees]
    return w, degrees


def cmd_toric(args):
    from .dsl import emit_quiver
    from .toric import (bondal_ruan_hpa, build_toric_hpa,
                        check_cohomologically_proper, degree_name, image_phi)
    w, degrees = _weight_data(args)
    if args.bondal_ruan:
        a = bondal_ruan_hpa(w)
    elif degrees is not None:
        a = build_toric_hpa(w, degrees)
    else:
        proper = check_cohomologically_proper(w)
        payload = {'proper': proper,
                   'image': [degree_name(d) for d in sorted(image_phi(w))]
                            if proper else None}
        return _emit(args, 'toric', payload)
    _write(args, emit_quiver(a.quiver, a.relations))
    return 0


def cmd_tensor(args):
    from .algebra import tensor
    from .dsl import emit_quiver
    a = _load(args.input)
    b = _load(args.second)
    t = tensor(a, b)
    if args.emit_quiver:
        _write(args, emit_quiver(t.quiver, t.relations))
        return 0
    payload = {'vertices': len(t.quiver.vertices),
               'arrows': len(t.quiver.arrows),
               'relation_groups': len(t.relations.groups),
               'classes': len(t.classes)}
    return _emit(args, 'tensor', payload)


def _max_dim(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _ring(text):
    try:  # argparse prints the reason of this error type only
        return parse_ring(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _add_common(sub, ring=False, max_dim=False, matching=False):
    sub.add_argument('input', help='quiver document')
    if ring:
        sub.add_argument('--ring', type=_ring, default=RING_Z,
                         help='Z, Q or Fp:<p> (default Z)')
    if max_dim:
        sub.add_argument('--max-dim', type=_max_dim, default=None,
                         help='cap the realization dimension')
    if matching:
        sub.add_argument('--matching', default='bh',
                         help="'bh', 'greedy', or a matching JSON file")
    sub.add_argument('--out', default=None, help='write output to a file')


def build_parser():
    p = argparse.ArgumentParser(
        prog='hpa',
        description='homotopy path algebras: realizations, resolutions, '
                    'Morse matchings, invariants, toric constructions')
    p.add_argument('--version', action='version', version=__version__)
    subs = p.add_subparsers(dest='command', required=True)

    for name, func, text, options in [
            ('check', cmd_check, 'validate the cancellation axioms', {}),
            ('realize', cmd_realize, 'name every cell of the realization',
             {'max_dim': True}),
            ('homology', cmd_homology, 'cellular homology of the realization',
             {'ring': True, 'max_dim': True}),
            ('resolve', cmd_resolve, 'cellular bimodule resolution checks',
             {'max_dim': True}),
            ('morse', cmd_morse, 'Morse complex of an internal matching',
             {'ring': True, 'max_dim': True, 'matching': True}),
            ('betti', cmd_betti, 'Betti table Tor_i(S_v, S_w)', {}),
            ('koszul', cmd_koszul, 'Koszulity verdict with certificate', {})]:
        s = subs.add_parser(name, help=text)
        _add_common(s, **options)
        s.set_defaults(func=func)

    s = subs.add_parser('toric', help='toric HPAs from weight data')
    s.add_argument('--weights', required=True,
                   help='inline JSON rows or a weights JSON file')
    collection = s.add_mutually_exclusive_group()
    collection.add_argument('--degrees', default=None,
                            help='inline JSON list of degrees')
    collection.add_argument('--bondal-ruan', action='store_true',
                            help='use the full half-open-zonotope degree '
                                 'collection')
    s.add_argument('--out', default=None)
    s.set_defaults(func=cmd_toric)

    s = subs.add_parser('tensor', help='tensor product of two algebras')
    s.add_argument('input', help='first quiver document')
    s.add_argument('second', help='second quiver document')
    s.add_argument('--emit-quiver', action='store_true',
                   help='emit the product as quiver DSL instead of a report')
    s.add_argument('--out', default=None)
    s.set_defaults(func=cmd_tensor)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    # a malformed document or matching file (hpa.UsageError), malformed JSON,
    # a file that is not UTF-8 or cannot be read is a usage error; any other
    # ValueError (QuiverError, MatchingError, ...) is a mathematical failure
    try:
        return args.func(args)
    except (UsageError, json.JSONDecodeError, UnicodeDecodeError,
            OSError) as e:
        print(f'error: {e}', file=sys.stderr)
        return 2
    except ValueError as e:
        print(f'error: {e}', file=sys.stderr)
        return 1


if __name__ == '__main__':
    sys.exit(main())
