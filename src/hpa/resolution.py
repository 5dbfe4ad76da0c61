"""Cellular bimodule resolution of a path algebra.

Degree-k generators are the k-cells of the realization; the generator for a
cell spans P_{t(cell)} (x) P^op_{h(cell)}.  The differential carries the face
maps: face 0 emits the left coefficient p_1, the top face emits the right
coefficient p_k / p_{k-1}, middle faces have trivial coefficients, and the
sign of face i is (-1)^i.  This module owns the id-numbered cells: one
BimoduleComplex, built by cellular_resolution, holds them in a simplex tree
with its child and face tables, which `hpa resolve` alone reads; every other
layer works on chains.  Elements are stored as dicts {(left class, cell,
right class): integer coefficient}, the cell an id; check witnesses name
cells by their chains (`c.chain`).  check_resolution decides d^2 = 0 and
d h + h d = id in one walk up the dimensions, h the inverse of the key map
(first, face 0); verify_d_squared decides d^2 = 0 term by term on any
complex.
"""

from collections import Counter
from itertools import chain, groupby, islice, repeat
from operator import eq

from .algebra import Report, accumulate, require_cancellative


class ResolutionError(ValueError):
    pass


class BimoduleComplex:
    """The cellular resolution of a cancellative algebra over the chains
    of its path poset, capped at dimension max_dim if given (a truncation,
    which is no resolution).  Built by `cellular_resolution`.

    A cell is an int, kept in a simplex tree (Boissonnat and Maria 2014):
    cell c is the chain of parent[c] (-1 for a vertex cell), its top face,
    extended by the class last[c]; `vertex` maps each vertex to its cell.
    Cells are numbered dimension by dimension, taking parents in id order
    and each one's children by increasing class id, so the range cells[k]
    of the k-cells, the generators of degree k, runs in sorted chain order
    (the order of `realization.cell_names`).  `children[c]` is {class:
    child} or None, cell c has faces face[at[c]:at[c + 1]], and p_1 =
    first[c].  The cells are built a level at a time from the quotient
    rows, then the child table, then the faces a level at a time."""

    def __init__(self, hpa, max_dim=None):
        a = self.hpa = hpa
        last = self.last = sorted(a.trivial_class.values())
        vertex = self.vertex = {a.tail(e): c for c, e in enumerate(last)}
        parent = self.parent = [-1] * len(last)
        # the trivial classes at the tail and at the head of each class
        self.units = [(a.trivial_class[cl.tail], a.trivial_class[cl.head])
                      for cl in a.classes]
        ups = {}  # the classes above each class, by id
        self.cells = [range(len(last))]
        self.truncated = False
        while self.cells[-1]:
            level = self.cells[-1]
            for p in set(last[level.start:]) - ups.keys():
                ups[p] = sorted(q for q in a.quotients(p) if q != p)
            rows = list(map(ups.__getitem__, last[level.start:]))
            if max_dim is not None and len(self.cells) > max_dim:
                self.truncated = any(rows)
                break
            parent += chain.from_iterable(map(repeat, level, map(len, rows)))
            last += chain.from_iterable(rows)
            self.cells.append(range(level.stop, len(last)))
        if len(self.cells) > 1 and not self.cells[-1]:
            self.cells.pop()
        ups = rows = None  # freed before the tables, which outlive them
        # the children of a cell are the run of cells that name it as parent
        children = self.children = [None] * len(last)
        stop = len(self.cells[0])
        for up, run in groupby(parent[stop:]):
            start, stop = stop, stop + len(list(run))
            children[up] = dict(zip(last[start:stop], range(start, stop)))
        # the faces, a level at a time, a column each: face k of a k-cell c
        # is parent[c]; face i, 0 < i < k, the child by last[c] of face i of
        # the parent; face 0 the child by p_1\p_k of face 0 of the parent,
        # for a 1-cell the vertex cell at the head of last[c]
        face = self.face = []
        at = self.at = [0] * (len(self.cells[0]) + 1)
        first = self.first = list(last)
        for k, level in enumerate(self.cells[1:], 1):
            ups = parent[level.start:level.stop]
            qs = last[level.start:level.stop]
            n1, base = k + 1, len(face)
            face += repeat(0, len(level) * n1)
            face[base + k::n1] = ups
            if k == 1:
                face[base::2] = map(vertex.__getitem__, map(a.head, qs))
            else:
                first[level.start:level.stop] = ups_first = list(
                    map(first.__getitem__, ups))
                quot = {p: a.quotients(p) for p in set(ups_first)}
                lo = self.cells[k - 1].start
                rel = list(map((-lo).__add__, ups))
                for i in range(k):  # children of face i of each (k-1)-cell
                    kids = list(map(children.__getitem__,
                                    face[at[lo] + i:base:k]))
                    face[base + i::n1] = map(
                        dict.__getitem__, map(kids.__getitem__, rel),
                        qs if i else map(dict.__getitem__, map(
                            quot.__getitem__, ups_first), qs))
            at += range(base + n1, len(face) + 1, n1)

    @property
    def top(self):
        return len(self.cells) - 1

    def generators(self, k):
        return self.cells[k] if 0 <= k <= self.top else []

    def counts(self):
        return [len(cs) for cs in self.cells]

    def chain(self, cell):
        """The chain (e_v, p_1, ..., p_k) of class ids of a cell."""
        last, parent, out = self.last, self.parent, []
        while cell >= 0:
            out.append(last[cell])
            cell = parent[cell]
        return tuple(reversed(out))

    def terms(self, cell):
        """Differential of a generator: list of (coef, l, face, r)."""
        faces = self.face[self.at[cell]:self.at[cell + 1]]
        if not faces:
            return []
        p = self.last[cell]
        el, er = self.units[p]
        sign = 1
        out = [(1, self.first[cell], faces[0], er)]
        for f in faces[1:-1]:
            sign = -sign
            out.append((sign, el, f, er))
        out.append((-sign, el, faces[-1],
                    self.hpa.quotients(self.last[faces[-1]])[p]))
        return out

    def h_cell(self, ac, cell):
        """Target of the contracting homotopy on ac (x) cell for a
        nontrivial ac: the cell of the chain (e, ac, ac.p_1, ..., ac.p_k),
        walked down the child table from the vertex cell at the tail of ac.
        Raises ResolutionError when the chain is not a cell."""
        a = self.hpa
        up = [a.mult(ac, p) for p in self.chain(cell)[1:]]
        new = self.vertex[a.tail(ac)]
        for q in (ac, *up):
            new = (self.children[new] or {}).get(q)
            if new is None:
                raise ResolutionError("homotopy left the complex: " + str(
                    (a.trivial_class[a.tail(ac)], ac, *up)))
        return new

    def h_element(self, elem):
        """Contracting homotopy: insert the left coefficient into the chain.
        Zero on terms whose left coefficient is trivial."""
        a = self.hpa
        out = {}
        for (ac, cell, bc), coef in elem.items():
            if not a.is_trivial(ac):
                accumulate(out, (a.trivial_class[a.tail(ac)],
                                 self.h_cell(ac, cell), bc), coef)
        return out


def cellular_resolution(a, max_dim=None):
    """The bimodule resolution of `a` supported on its realization, capped
    at max_dim.  A non-cancellative algebra is refused with
    NotCancellativeError: there face 0 of a chain need not be a chain."""
    require_cancellative(a)
    return BimoduleComplex(a, max_dim)


def _failing(test, n):
    """The i in range(n) without test(i, i + 1), for a test of a range that
    holds when it holds at each index; tried 64 indices at a time."""
    return [i for lo in range(0, n, 64) if not test(lo, min(n, lo + 64))
            for i in range(lo, min(n, lo + 64)) if not test(i, i + 1)]


def _shapes(c, k, trivial):
    """{cell: (faces, p, q, t, u)} over the k-cells, k >= 1, whose term list
    has the shape of a cellular differential, which determines it: signs
    1, -1, 1, ...; left coefficients p, t, ..., t and right ones u, ..., u,
    q, with p and q nontrivial and (t, u) = c.units[last class], the
    trivial classes at the cell's tail and head, so that a product with
    them is the other factor; and whose faces and p are the tables' (c.face
    and c.first)."""
    n1, out, cells = k + 1, {}, c.generators(k)
    alt = ((1, -1) * n1)[:n1]

    def test(i, j):
        ts = list(map(c.terms, cells[i:j]))
        if list(map(len, ts)) != [n1] * (j - i):
            return False
        s, l, f, r = zip(*chain.from_iterable(ts))
        p, t, u, q = l[::n1], l[1::n1], r[::n1], r[k::n1]
        ends = zip(*map(c.units.__getitem__,
                        map(c.last.__getitem__, cells[i:j])))
        lo, hi = cells[i], cells[j - 1] + 1
        ok = (s == alt * (j - i) and all(l[m::n1] == t for m in range(2, n1))
              and all(r[m::n1] == u for m in range(1, k)) and
              [t, u] == list(ends) and
              not any(map(trivial.__getitem__, p + q)) and
              list(p) == c.first[lo:hi] and
              list(f) == c.face[c.at[lo]:c.at[hi]])
        if ok:
            out.update(zip(cells[i:j], zip(zip(*[iter(f)] * n1), p, q, t, u)))
        return ok
    _failing(test, len(cells))
    return out


def _unpaired(c, k, below, level):
    """The k-cells (k >= 2, shapes below and level), in order, that the face
    identities do not clear.  d_i d_j = d_{j-1} d_i (i < j) pairs the term
    of d(d(cell)) through faces j, i with the one through faces i, j - 1,
    and the pairs partition the terms.  On shapes, a pair has opposite signs
    and cancels when face i of face j is face j - 1 of face i, the faces' t
    and p are the cell's (face 1: p times face 0's p) and so are their q
    (face k - 1: face k's q times q).  These are whole-list comparisons."""
    mult, n1, w = c.hpa.mult, k + 1, (k + 1) * k
    cells, shapes = list(level), list(level.values())

    def test(lo, hi):
        f, p, q, t, _ = zip(*shapes[lo:hi])
        sub = list(map(below.get, chain.from_iterable(f)))
        if None in sub:
            return False
        ff, sp, sq, st, _ = zip(*sub)
        ff = list(chain.from_iterable(ff))
        return (all(ff[j * k + i::w] == ff[i * k + j - 1::w]
                    for j in range(1, n1) for i in range(j)) and
                all(st[j::n1] == t for j in range(1, n1)) and
                all(sp[j::n1] == p for j in range(2, n1)) and
                all(sq[j::n1] == q for j in range(k - 1)) and
                sp[1::n1] == tuple(map(mult, p, sp[::n1])) and
                tuple(map(mult, sq[k::n1], q)) == sq[k - 1::n1])
    failed = {cells[i] for i in _failing(test, len(cells))}
    return [cell for cell in c.generators(k)
            if cell in failed or cell not in level]


def _d_squared(c, cells):
    """d^2 = 0 on the given cells, term by term; every generator of
    dimension >= 2 counts as checked.  Like terms are collected by (left
    class, cell, right class): a product of classes whose ends do not meet
    is zero, so its term is dropped, and a product with a trivial class is
    the other factor; what is left over is its witness, cells as chains."""
    a, chain_of, mult = c.hpa, c.chain, c.hpa.mult
    trivial = [cl.is_trivial for cl in a.classes]
    ends = [(cl.tail, cl.head) for cl in a.classes]
    failures = []
    for cell in cells:
        acc = {}
        for s1, l1, f1, r1 in c.terms(cell):
            for s2, l2, f2, r2 in c.terms(f1):
                if ends[l1][1] != ends[l2][0] or ends[r2][1] != ends[r1][0]:
                    continue
                l = l2 if trivial[l1] else l1 if trivial[l2] else mult(l1, l2)
                r = r1 if trivial[r2] else r2 if trivial[r1] else mult(r2, r1)
                accumulate(acc, (l, f2, r), s1 * s2)
        if acc:
            failures.append((chain_of(cell), {
                (l, chain_of(f), r): v for (l, f, r), v in acc.items()}))
    return Report(failures, sum(len(c.generators(k))
                                for k in range(2, c.top + 1)))


def verify_d_squared(c):
    """Symbolic d^2 = 0, term by term, on every generator of a complex with
    the hpa, generators(), terms() and chain() of a BimoduleComplex: the
    check for complexes without the cellular shape, such as Morse ones."""
    return _d_squared(c, chain.from_iterable(
        map(c.generators, range(2, c.top + 1))))


def multiply_augmentation(c, elem):
    """The augmentation m: degree-0 elements to {class: coefficient}."""
    a = c.hpa
    out = {}
    for (ac, cell, bc), coef in elem.items():
        accumulate(out, a.mult(a.mult(ac, c.last[cell]), bc), coef)
    return out


def h_minus_one(c, alg_elem):
    """h_{-1}: algebra element (dict class -> coef) into degree 0."""
    a = c.hpa
    out = {}
    for cls, coef in alg_elem.items():
        v = a.tail(cls)
        accumulate(out, (a.trivial_class[v], c.vertex[v], cls), coef)
    return out


def _homotopy(c, rows, checked):
    """d h + h d = id on every module basis element (ac, cell, bc), checked
    of them, plus m h_{-1} = id on each class of the algebra.  d and h are
    maps of right modules, so only the triples of the given rows (cell, ac)
    are evaluated, and a failing one gives its value as witness, cells
    written as chains."""
    a, mult = c.hpa, c.hpa.mult
    failures = []
    for cell, ac in rows:
        for bc in a.classes_by_tail[a.head(c.last[cell])]:
            # d h + h d (d h + h_{-1} m in degree 0), collected in the
            # order that applying d and h element-wise gives
            got = {}
            if not a.is_trivial(ac):
                e = a.trivial_class[a.tail(ac)]
                for sign, l, face, r in c.terms(c.h_cell(ac, cell)):
                    accumulate(got, (mult(e, l), face, mult(r, bc)), sign)
            if c.parent[cell] < 0:
                hd = h_minus_one(c, multiply_augmentation(
                    c, {(ac, cell, bc): 1}))
            else:
                hd = {}
                for sign, l, face, r in c.terms(cell):
                    accumulate(hd, (mult(ac, l), face, mult(r, bc)), sign)
                hd = c.h_element(hd)
            for key, coef in hd.items():
                accumulate(got, key, coef)
            if got != {(ac, cell, bc): 1}:
                failures.append(((ac, c.chain(cell), bc), {
                    (l, c.chain(f), r): v for (l, f, r), v in got.items()}))
    for cls in range(len(a.classes)):
        out = multiply_augmentation(c, h_minus_one(c, {cls: 1}))
        if out != {cls: 1}:
            failures.append((('algebra', cls), out))
    return Report(failures, checked + len(a.classes))


def check_resolution(c):
    """(d^2 report, homotopy report) of the cellular resolution c, decided
    in one walk up the dimensions; the homotopy report, d h + h d = id, is
    None when c is truncated, which is no resolution.  At degree k the
    shapes of the k- and (k+1)-cells (faces and p_1 the tables') clear d^2
    on the (k+1)-cells (_unpaired) and the rows (cell, ac) of degree k.  On
    the tables h is the inverse of the key map tau -> (first[tau], face 0),
    checked to be a bijection onto the rows with ac nontrivial.  For tau =
    h(ac, cell), term 0 of d tau is ac (x) cell and term i + 1 cancels h of
    term i of d(ac (x) cell) once tau passes: d_0 d_{i+1} = d_i d_0 keys
    face i + 1 (ac, F_i(cell)), d_0 d_1 = d_0 d_0 keys face 1 (ac.p,
    F_0(cell)), and tau's q is its face 0's.  A 1-cell, which no d^2 test
    covers, passes when its p and q are its last class.  For the trivial
    ac, h d keeps face 0 only, which h takes back to the cell when the cell
    passes.  What the tests do not clear, and every row of a degree whose
    key map is no bijection, is evaluated term by term, in (cell, ac)
    order."""
    a, first, last, face, at = c.hpa, c.first, c.last, c.face, c.at
    by_head, by_tail = a.classes_by_head, a.classes_by_tail
    tails = [cl.tail for cl in a.classes]
    heads = [cl.head for cl in a.classes]
    trivial = [cl.is_trivial for cl in a.classes]
    unpaired, unfixed, triples = [], [], 0
    shapes = failed = None  # of the k-cells: the shapes, those that fail
    for k in range(c.top + 1):
        level, up = c.cells[k], c.cells[k + 1] if k < c.top else range(0)
        above = _shapes(c, k + 1, trivial) if k < c.top else {}
        if k:
            fails = _unpaired(c, k + 1, shapes, above) if k < c.top else []
            unpaired += fails
        else:  # a 1-cell passes when its p and q are its last class
            fails = [t for t in up
                     if above.get(t, ())[1:3] != (last[t], last[t])]
        if not c.truncated:
            rows = 0
            for p, n in Counter(last[level.start:level.stop]).items():
                rows += n * (len(by_head[tails[p]]) - 1)
                triples += n * len(by_head[tails[p]]) * len(by_tail[heads[p]])
            ps = first[up.start:up.stop]
            keys = list(map(face.__getitem__, islice(at, up.start, up.stop)))
            # the keys of passing cells differ, as h takes each back to its
            # cell; those of failing ones must differ from every other key
            todo = {(first[t], face[at[t]]) for t in fails}
            if (len(up) == rows and len(todo) == len(fails) and
                    not any(map(trivial.__getitem__, ps)) and
                    all(map(eq, map(heads.__getitem__, ps), map(
                        tails.__getitem__, map(last.__getitem__, keys)))) and
                    (not todo or len(todo) == sum(
                        map(todo.__contains__, zip(ps, keys))))):
                unfixed += sorted([(cell, ac) for ac, cell in todo] + [
                    (cell, c.units[last[cell]][0]) for cell in failed or ()])
            else:
                unfixed += [(cell, ac) for cell in level
                            for ac in by_head[tails[last[cell]]]]
        shapes, failed = above, fails
    return (_d_squared(c, unpaired),
            None if c.truncated else _homotopy(c, unfixed, triples))


def simple_tensor_complex(source):
    """S_v (x) C (x) S_w for a complex with a generators()/terms()/chain()
    interface, as ({(v, w): cells by degree}, boundary) for
    `linalg.homology`: generators grouped in one pass by the tail and
    head of their last class (a pair without one is missing, its complex
    empty), terms kept when their two coefficients are trivial."""
    a, top = source.hpa, source.top
    blocks = {}
    for k in range(top + 1):
        for g in source.generators(k):
            cl = a.classes[source.chain(g)[-1]]
            blocks.setdefault((cl.tail, cl.head),
                              [[] for _ in range(top + 1)])[k].append(g)

    def boundary(cell):
        return [(sign, face) for sign, l, face, r in source.terms(cell)
                if a.is_trivial(l) and a.is_trivial(r)]
    return blocks, boundary
