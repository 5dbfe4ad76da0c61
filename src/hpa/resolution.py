"""Cellular bimodule resolution of a path algebra.

Degree-k generators are the k-cells of the realization; the generator for a
cell spans P_{t(cell)} (x) P^op_{h(cell)}.  The differential carries the face
maps: face 0 emits the left coefficient p_1, the top face emits the right
coefficient p_k / p_{k-1}, middle faces have trivial coefficients, and the
sign of face i is (-1)^i.  Elements are stored as dicts
{(left class, cell, right class): integer coefficient}, the cell an id of
the realization; check witnesses name cells by their chains (`x.chain`).
check_resolution decides d^2 = 0 and d h + h d = id in one walk up the
dimensions; verify_d_squared decides d^2 = 0 term by term on any complex.
"""

from itertools import chain

from .algebra import Report, require_cancellative
from .realization import accumulate, build_realization


class ResolutionError(ValueError):
    pass


class BimoduleComplex:
    """Generators cells[k] in degree k, over the cells of complex_."""

    def __init__(self, hpa, complex_):
        self.hpa = hpa
        self.complex = complex_
        self.cells = complex_.cells
        # the trivial classes at the tail and at the head of each class
        self.units = [(hpa.trivial_class[cl.tail], hpa.trivial_class[cl.head])
                      for cl in hpa.classes]

    @property
    def top(self):
        return len(self.cells) - 1

    def generators(self, k):
        return self.cells[k] if 0 <= k <= self.top else []

    def counts(self):
        return [len(cs) for cs in self.cells]

    def chain(self, cell):
        return self.complex.chain(cell)

    def terms(self, cell):
        """Differential of a generator: list of (coef, l, face, r)."""
        x = self.complex
        faces = x.face[x.at[cell]:x.at[cell + 1]]
        if not faces:
            return []
        p = x.last[cell]
        el, er = self.units[p]
        sign = 1
        out = [(1, x.first[cell], faces[0], er)]
        for f in faces[1:-1]:
            sign = -sign
            out.append((sign, el, f, er))
        out.append((-sign, el, faces[-1],
                    self.hpa.quotients(x.last[faces[-1]])[p]))
        return out

    def h_cell(self, ac, cell):
        """Target of the contracting homotopy on ac (x) cell for a
        nontrivial ac: the cell of the chain (e, ac, ac.p_1, ..., ac.p_k).
        Raises ResolutionError when the chain is not a cell."""
        a, x = self.hpa, self.complex
        up = [a.mult(ac, p) for p in x.chain(cell)[1:]]
        new = x.child(x.vertex[a.tail(ac)], ac, *up)
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


def cellular_resolution(a, x=None):
    """Bimodule resolution supported on the cell complex x (built from a when
    omitted).  Refuses a non-cancellative algebra."""
    require_cancellative(a)
    if x is None:
        x = build_realization(a)
    return BimoduleComplex(a, x)


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
    them is the other factor."""
    n1, out, cells = k + 1, {}, c.generators(k)
    alt = ((1, -1) * n1)[:n1]

    def test(i, j):
        ts = list(map(c.terms, cells[i:j]))
        if list(map(len, ts)) != [n1] * (j - i):
            return False
        s, l, f, r = zip(*chain.from_iterable(ts))
        p, t, u, q = l[::n1], l[1::n1], r[::n1], r[k::n1]
        ends = zip(*map(c.units.__getitem__,
                        map(c.complex.last.__getitem__, cells[i:j])))
        ok = (s == alt * (j - i) and all(l[m::n1] == t for m in range(2, n1))
              and all(r[m::n1] == u for m in range(1, k)) and
              [t, u] == list(ends) and
              not any(map(trivial.__getitem__, p + q)))
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
        accumulate(out, a.mult(a.mult(ac, c.complex.last[cell]), bc), coef)
    return out


def h_minus_one(c, alg_elem):
    """h_{-1}: algebra element (dict class -> coef) into degree 0."""
    a = c.hpa
    out = {}
    for cls, coef in alg_elem.items():
        v = a.tail(cls)
        accumulate(out, (a.trivial_class[v], c.complex.vertex[v], cls), coef)
    return out


def _homotopy(c, rows, checked):
    """d h + h d = id on every module basis element (ac, cell, bc), checked
    of them, plus m h_{-1} = id on each class of the algebra.  d and h are
    maps of right modules, so only the triples of the given rows (cell, ac)
    are evaluated, and a failing one gives its value as witness, cells
    written as chains."""
    a, x, mult = c.hpa, c.complex, c.hpa.mult
    failures = []
    for cell, ac in rows:
        for bc in a.classes_by_tail[a.head(x.last[cell])]:
            # d h + h d (d h + h_{-1} m in degree 0), collected in the
            # order that applying d and h element-wise gives
            got = {}
            if not a.is_trivial(ac):
                e = a.trivial_class[a.tail(ac)]
                for sign, l, face, r in c.terms(c.h_cell(ac, cell)):
                    accumulate(got, (mult(e, l), face, mult(r, bc)), sign)
            if x.parent[cell] < 0:
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
                failures.append(((ac, x.chain(cell), bc), {
                    (l, x.chain(f), r): v for (l, f, r), v in got.items()}))
    for cls in range(len(a.classes)):
        out = multiply_augmentation(c, h_minus_one(c, {cls: 1}))
        if out != {cls: 1}:
            failures.append((('algebra', cls), out))
    return Report(failures, checked + len(a.classes))


def check_resolution(c):
    """(d^2 report, homotopy report) of the cellular resolution c, decided
    in one walk up the dimensions; the homotopy report, d h + h d = id, is
    None when c.complex is truncated, which is no resolution.  At degree k
    the shapes of the k- and (k+1)-cells clear the face identities of d^2 on
    the (k+1)-cells (_unpaired) and each row (cell, ac) of degree k where
    they show (d h + h d)(ac (x) cell (x) e) = ac (x) cell (x) e, e the
    trivial class at the cell's head.  For a nontrivial ac, tau = h_cell(ac,
    cell) is (e_0, ac, ac.p_1, ..., ac.p_k): term 0 of d tau is ac (x) cell
    and term i + 1 cancels h of term i of d(ac (x) cell) when tau's shape is
    ((cell, h(ac.p, face 0), h(ac, face 1), ...), ac, q, e_0, e), the cell's
    being (faces, p, q, t, e); in degree 0, h_{-1} m cancels term 1 of d tau
    when it is ((cell, [e_0]), ac, ac, e_0, e).  For the trivial ac, h d
    keeps face 0 only, which gives the cell back when h(p, face 0) is the
    cell (in degree 0 h_{-1} m is the identity).  h[ac] is built a level at
    a time: h_cell of a cell is the child by ac.last[cell] of that of its
    parent (ResolutionError, through h_cell, when it is not a cell).  What
    the shapes do not clear is evaluated term by term."""
    a, x, units = c.hpa, c.complex, c.units
    mult, children, tails = a.mult, x.children, [cl.tail for cl in a.classes]
    trivial = [cl.is_trivial for cl in a.classes]
    unpaired, unfixed, triples = [], [], 0
    h = shapes = None
    for k in range(c.top + 1):
        above = _shapes(c, k + 1, trivial) if k < c.top else {}
        if 0 < k < c.top:
            unpaired += _unpaired(c, k + 1, shapes, above)
        below, h = h, {ac: {} for ac, t in enumerate(trivial) if not t}
        for cell in () if x.truncated else c.generators(k):
            p = x.last[cell]
            e = units[p][1]
            s = shapes.get(cell) if k else None
            fixed = s is not None
            # a row of triples per left class, one per right class
            row = a.classes_by_head[tails[p]]
            triples += len(row) * len(a.classes_by_tail[a.head(p)])
            for ac in row:
                if trivial[ac]:
                    if k and not (fixed and
                                  below[s[1]].get(s[0][0]) == cell):
                        unfixed.append((cell, ac))
                    continue
                up, q = (below[ac][x.parent[cell]], mult(ac, p)) if k \
                    else (x.vertex[tails[ac]], ac)
                tau = (children[up] or {}).get(q)
                tau = h[ac][cell] = c.h_cell(ac, cell) if tau is None else tau
                want = ((cell, up), ac, ac, units[ac][0], e) if not k else \
                    fixed and ((cell, below[mult(ac, s[1])].get(s[0][0]),
                                *map(below[ac].get, s[0][1:])), ac, s[2],
                               units[ac][0], e)
                if above.get(tau) != want:
                    unfixed.append((cell, ac))
        shapes = above
    return (_d_squared(c, unpaired),
            None if x.truncated else _homotopy(c, unfixed, triples))


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
