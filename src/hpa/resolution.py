"""Cellular bimodule resolution of a path algebra.

Degree-k generators are the k-cells of the realization; the generator for a
cell spans P_{t(cell)} (x) P^op_{h(cell)}.  The differential carries the face
maps: face 0 emits the left coefficient p_1, the top face emits the right
coefficient p_k / p_{k-1}, middle faces have trivial coefficients, and the
sign of face i is (-1)^i.  Elements are stored as dicts
{(left class, cell, right class): integer coefficient}, the cell an id of
the realization; check witnesses name cells by their chains (`x.chain`).
"""

from . import RING_Z
from .algebra import Report, require_cancellative
from .linalg import accumulate
from .realization import build_realization, chain_complex


class ResolutionError(ValueError):
    pass


class BimoduleComplex:
    """Generators cells[k] in degree k, over the cells of complex_."""

    def __init__(self, hpa, complex_):
        self.hpa = hpa
        self.complex = complex_
        self.cells = complex_.cells
        self._diff = {}
        self._h = {}

    @property
    def top(self):
        return len(self.cells) - 1

    def generators(self, k):
        return self.cells[k] if 0 <= k <= self.top else []

    def counts(self):
        return [len(cs) for cs in self.cells]

    def terms(self, cell):
        """Differential of a generator: list of (coef, l, face, r)."""
        out = self._diff.get(cell)
        if out is None:
            a, x = self.hpa, self.complex
            faces = x.faces(cell)
            el = a.trivial_class[x.tail(cell)]
            er = a.trivial_class[x.head(cell)]
            out = [(-1 if i % 2 else 1, el, f, er)
                   for i, f in enumerate(faces)]
            if faces:
                k = len(faces) - 1
                out[0] = (1, x.first[cell], faces[0], er)
                out[k] = ((-1) ** k, el, faces[k],
                          a.divide(x.last[faces[k]], x.last[cell]))
            self._diff[cell] = out
        return out

    def h_cell(self, ac, cell):
        """Target of the contracting homotopy on ac (x) cell: the cell of
        the chain (e, ac, ac.p_1, ..., ac.p_k) for a nontrivial ac, which is
        the child by ac.last[cell] of h_cell(ac, parent[cell]).  Memoized;
        raises ResolutionError when the chain is not a cell."""
        key = cell * len(self.hpa.classes) + ac
        new = self._h.get(key)
        if new is None:
            a, x = self.hpa, self.complex
            up = x.parent[cell]
            try:
                new = x.child(x.vertex[a.tail(ac)], ac) if up < 0 else \
                    x.child(self.h_cell(ac, up), a.mult(ac, x.last[cell]))
            except ResolutionError:
                new = None
            if new is None:
                raise ResolutionError("homotopy left the complex: " + str(
                    (a.trivial_class[a.tail(ac)], ac) + tuple(
                        [a.mult(ac, p) for p in x.chain(cell)[1:]])))
            self._h[key] = new
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


def _pairs_cancel(outer, inner, trivial, mult):
    """Whether the composite terms of d(d(cell)) cancel pair by pair, for
    outer = terms(cell) and inner[i] = terms(face i).  The face identities
    d_i d_j = d_{j-1} d_i (i < j) pair the term through face j and then i
    with the term through face i and then j-1: same face, same composite
    coefficients, opposite signs.  These pairs partition all the composite
    terms whenever each inner list is one shorter than outer, so a True
    answer proves d(d(cell)) = 0 for any term lists."""
    k = len(outer) - 1
    for sub in inner:
        if len(sub) != k:
            return False
    for j in range(1, k + 1):
        s1, l1, _, r1 = outer[j]
        sub_j = inner[j]
        for i in range(j):
            s2, l2, f2, r2 = sub_j[i]
            t1, m1, _, q1 = outer[i]
            t2, m2, g2, q2 = inner[i][j - 1]
            if f2 != g2 or s1 * s2 != -t1 * t2:
                return False
            l = l2 if trivial[l1] else l1 if trivial[l2] else mult(l1, l2)
            m = m2 if trivial[m1] else m1 if trivial[m2] else mult(m1, m2)
            if l != m:
                return False
            r = r1 if trivial[r2] else r2 if trivial[r1] else mult(r2, r1)
            q = q1 if trivial[q2] else q2 if trivial[q1] else mult(q2, q1)
            if r != q:
                return False
    return True


def verify_d_squared(c):
    """Symbolic d^2 = 0 on every generator of a complex with a terms()
    interface; a product with a trivial class is the other factor.  A cell
    whose composite terms cancel in the pairs the face identities predict
    passes at once (see _pairs_cancel).  Any other cell is decided by
    collecting like terms by (left class, cell, right class); what is left
    over is its witness, with every cell written as its chain."""
    a, chain = c.hpa, c.complex.chain
    mult = a.mult
    terms = c.terms
    trivial = [cl.is_trivial for cl in a.classes]
    failures = []
    checked = 0
    for k in range(2, c.top + 1):
        for cell in c.generators(k):
            checked += 1
            outer = terms(cell)
            inner = [terms(f1) for _, _, f1, _ in outer]
            if _pairs_cancel(outer, inner, trivial, mult):
                continue
            acc = {}
            for (s1, l1, f1, r1), sub in zip(outer, inner):
                for s2, l2, f2, r2 in sub:
                    l = l2 if trivial[l1] else l1 if trivial[l2] else \
                        mult(l1, l2)
                    r = r1 if trivial[r2] else r2 if trivial[r1] else \
                        mult(r2, r1)
                    key = (l, f2, r)
                    v = acc.get(key, 0) + s1 * s2
                    if v:
                        acc[key] = v
                    else:
                        acc.pop(key, None)
            if acc:
                failures.append((chain(cell), {
                    (l, chain(f), r): v for (l, f, r), v in acc.items()}))
    return Report(failures, checked)


def multiply_augmentation(c, elem):
    """The augmentation m: degree-0 elements to algebra classes (as a dict
    class -> coefficient)."""
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


def _homotopy_lhs(c, ac, cell, bc):
    """(d h + h d)(ac (x) cell (x) bc), with d h + h_{-1} m in degree 0.
    Terms are collected in the order that applying d and h element-wise
    produces, so a failure witness reads the same either way."""
    a = c.hpa
    mult = a.mult
    lhs = {}
    if not a.is_trivial(ac):
        e = a.trivial_class[a.tail(ac)]
        for sign, l, face, r in c.terms(c.h_cell(ac, cell)):
            accumulate(lhs, (mult(e, l), face, mult(r, bc)), sign)
    if c.complex.parent[cell] < 0:
        other = h_minus_one(c, multiply_augmentation(c, {(ac, cell, bc): 1}))
    else:
        dx = {}
        for sign, l, face, r in c.terms(cell):
            accumulate(dx, (mult(ac, l), face, mult(r, bc)), sign)
        other = c.h_element(dx)
    for key, coef in other.items():
        accumulate(lhs, key, coef)
    return lhs


def _fixes_generator(c, ac, cell, e, trivial, mult):
    """A sufficient test that (d h + h d)(ac (x) cell (x) e) is ac (x) cell
    (x) e, for a cell of dimension >= 1 and e the trivial class at its head.
    For a nontrivial ac, with tau = h_cell(ac, cell), term 0 of tau must be
    (+1, ac, cell, e) and term i+1 of tau cancel h of term i of the cell.
    For a trivial ac, d h vanishes, and exactly one term of the cell must
    have a nontrivial left coefficient l, with sign +1, right coefficient e
    and h_cell(l, face) = cell.  True proves the identity; False decides
    nothing."""
    dx = c.terms(cell)
    if not trivial[ac]:
        tau = c.h_cell(ac, cell)
        dtau = c.terms(tau)
        if len(dtau) != len(dx) + 1 or dtau[0] != (1, ac, cell, e):
            return False
        e0 = c.hpa.trivial_class[c.hpa.tail(ac)]
        # m = ac.l is nontrivial, as ac is and the quiver is acyclic, so h
        # never drops a term of d(ac (x) cell)
        for (s, l, f, r), (st, lt, ft, rt) in zip(dx, dtau[1:]):
            m = ac if trivial[l] else mult(ac, l)
            if st != -s or lt != e0 or rt != r or ft != c.h_cell(m, f):
                return False
        return True
    moved = [t for t in dx if not trivial[t[1]]]
    if len(moved) != 1:
        return False
    # h_cell(l, f) == cell puts e_{t(l)} first in cell, and that is ac
    s, l, f, r = moved[0]
    return s == 1 and r == e and c.h_cell(l, f) == cell


def contracting_homotopy_check(a, c):
    """Verify d h + h d = id on every module basis element (ac, cell, bc),
    plus m h_{-1} = id on the algebra.  Exactness of the resolution follows.

    d and h are maps of right modules, so the left side on (ac, cell, bc) is
    the right translate by bc of its value L on (ac, cell, e), e the trivial
    class at the head of the cell.  When _fixes_generator shows that L is
    ac (x) cell (x) e, the whole row of triples passes.  Otherwise each
    triple's translate of L is compared with the triple, and a failing one
    is recomputed directly for its witness, cells written as chains."""
    mult = a.mult
    x = c.complex
    trivial = [cl.is_trivial for cl in a.classes]
    failures = []
    checked = 0
    for k in range(0, c.top + 1):
        for cell in c.generators(k):
            h = x.head(cell)
            e = a.trivial_class[h]
            right = a.classes_by_tail[h]
            for ac in a.classes_by_head[x.tail(cell)]:
                if k and _fixes_generator(c, ac, cell, e, trivial, mult):
                    checked += len(right)
                    continue
                lhs = _homotopy_lhs(c, ac, cell, e)
                for bc in right:
                    checked += 1
                    moved = {}
                    for (l, f, r), coef in lhs.items():
                        accumulate(moved, (l, f, mult(r, bc)), coef)
                    if moved != {(ac, cell, bc): 1}:
                        got = _homotopy_lhs(c, ac, cell, bc).items()
                        failures.append(((ac, x.chain(cell), bc), {
                            (l, x.chain(f), r): v for (l, f, r), v in got}))
    for cls in range(len(a.classes)):
        checked += 1
        out = multiply_augmentation(c, h_minus_one(c, {cls: 1}))
        if out != {cls: 1}:
            failures.append((('algebra', cls), out))
    return Report(failures, checked)


def simple_tensor_complex(source, v, w, ring=RING_Z):
    """S_v (x) C (x) S_w for a complex with a generators()/terms()
    interface: keep generators with tail v and head w (their last class
    runs from v to w) and terms whose two coefficients are trivial."""
    a, last = source.hpa, source.complex.last
    ends = set(a.classes_by_pair.get((v, w), ()))

    def boundary(cell):
        return [(sign, face) for sign, l, face, r in source.terms(cell)
                if a.is_trivial(l) and a.is_trivial(r)]
    return chain_complex(
        [[g for g in source.generators(k) if last[g] in ends]
         for k in range(source.top + 1)], boundary, ring)
