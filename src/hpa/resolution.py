"""Cellular bimodule resolution of a path algebra.

Degree-k generators are the k-cells of the realization; the generator for a
cell spans P_{t(cell)} (x) P^op_{h(cell)}.  The differential carries the face
maps: face 0 emits the left coefficient p_1, the top face emits the right
coefficient p_k / p_{k-1}, middle faces have trivial coefficients, and the
sign of face i is (-1)^i.  Elements are stored as dicts
{(left class, cell, right class): integer coefficient}.
"""

from . import RING_Z
from .algebra import Report, require_cancellative
from .linalg import accumulate
from .realization import build_realization, chain_complex


class ResolutionError(ValueError):
    pass


class BimoduleComplex:
    def __init__(self, hpa, complex_):
        self.hpa = hpa
        self.complex = complex_
        self._diff = {}
        self._h = {}

    @property
    def top(self):
        return self.complex.max_dim

    def generators(self, k):
        if 0 <= k <= self.top:
            return self.complex.cells[k]
        return []

    def terms(self, cell):
        """Differential of a generator: list of (coef, l, face, r)."""
        cached = self._diff.get(cell)
        if cached is not None:
            return cached
        a = self.hpa
        k = len(cell) - 1
        out = []
        if k >= 1:
            faces = self.complex.faces(cell)
            for i, face in enumerate(faces):
                sign = (-1) ** i
                if i == 0:
                    l = cell[1]
                    r = a.trivial_class[a.head(cell[-1])]
                elif i == k:
                    l = a.trivial_class[a.tail(cell[0])]
                    prev = cell[k - 1]
                    r = a.divide(prev, cell[k])
                else:
                    l = a.trivial_class[a.tail(cell[0])]
                    r = a.trivial_class[a.head(cell[-1])]
                out.append((sign, l, face, r))
        self._diff[cell] = out
        return out

    def h_cell(self, ac, cell):
        """Target of the contracting homotopy on ac (x) cell: the chain
        (e, ac, ac.p_1, ..., ac.p_k) for a nontrivial ac.  Memoized by
        (ac, cell); raises ResolutionError when the chain is not a cell."""
        key = (ac, cell)
        new = self._h.get(key)
        if new is None:
            a = self.hpa
            new = (a.trivial_class[a.tail(ac)], ac) + tuple(
                [a.mult(ac, p) for p in cell[1:]])
            at = self.complex.index.get(new)
            if at is None:
                raise ResolutionError(f"homotopy left the complex: {new}")
            # keep the complex's own tuple, not a copy, in the memo
            new = self._h[key] = self.complex.cells[at[0]][at[1]]
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


def verify_d_squared(c):
    """Symbolic d^2 = 0 on every generator, collecting like terms by
    (left class, cell, right class).  Works on any complex with a terms()
    interface; a product with a trivial class is the other factor."""
    a = c.hpa
    mult = a.mult
    trivial = [cl.is_trivial for cl in a.classes]
    failures = []
    checked = 0
    for k in range(2, c.top + 1):
        for cell in c.generators(k):
            checked += 1
            acc = {}
            for s1, l1, f1, r1 in c.terms(cell):
                for s2, l2, f2, r2 in c.terms(f1):
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
                failures.append((cell, acc))
    return Report(failures, checked)


def multiply_augmentation(c, elem):
    """The augmentation m: degree-0 elements to algebra classes (as a dict
    class -> coefficient)."""
    a = c.hpa
    out = {}
    for (ac, cell, bc), coef in elem.items():
        accumulate(out, a.mult(a.mult(ac, cell[0]), bc), coef)
    return out


def h_minus_one(c, alg_elem):
    """h_{-1}: algebra element (dict class -> coef) into degree 0."""
    a = c.hpa
    out = {}
    for cls, coef in alg_elem.items():
        v = a.tail(cls)
        accumulate(out, (a.trivial_class[v], (a.trivial_class[v],), cls), coef)
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
    if len(cell) == 1:
        other = h_minus_one(c, multiply_augmentation(c, {(ac, cell, bc): 1}))
    else:
        dx = {}
        for sign, l, face, r in c.terms(cell):
            accumulate(dx, (mult(ac, l), face, mult(r, bc)), sign)
        other = c.h_element(dx)
    for key, coef in other.items():
        accumulate(lhs, key, coef)
    return lhs


def contracting_homotopy_check(a, c):
    """Verify d h + h d = id on every module basis element (ac, cell, bc),
    plus m h_{-1} = id on the algebra.  Exactness of the resolution follows.

    d and h are maps of right modules (d sends r to r.bc, h passes bc
    through) and class multiplication is associative, so the left side on
    (ac, cell, bc) is the right translate by bc of its value L on
    (ac, cell, e), e the trivial class at the head of the cell.  L is
    evaluated once per (left class, cell); each triple's translate is
    compared with the triple itself, and a failing triple is recomputed
    directly for its witness."""
    failures = []
    checked = 0
    for k in range(0, c.top + 1):
        for cell in c.generators(k):
            h = a.head(cell[-1])
            for ac in a.classes_by_head[a.tail(cell[0])]:
                lhs = _homotopy_lhs(c, ac, cell, a.trivial_class[h])
                for bc in a.classes_by_tail[h]:
                    checked += 1
                    moved = {}
                    for (l, f, r), coef in lhs.items():
                        accumulate(moved, (l, f, a.mult(r, bc)), coef)
                    if moved != {(ac, cell, bc): 1}:
                        failures.append(((ac, cell, bc),
                                         _homotopy_lhs(c, ac, cell, bc)))
    for cls in range(len(a.classes)):
        checked += 1
        out = multiply_augmentation(c, h_minus_one(c, {cls: 1}))
        if out != {cls: 1}:
            failures.append((('algebra', cls), out))
    return Report(failures, checked)


def simple_tensor_complex(source, v, w, ring=RING_Z):
    """S_v (x) C (x) S_w for a complex with a generators()/terms()
    interface: keep generators with tail v and head w, that is with first
    entry e_v, and differential terms whose two coefficients are both
    trivial."""
    a = source.hpa
    e = a.trivial_class[v]

    def boundary(cell):
        return [(sign, face) for sign, l, face, r in source.terms(cell)
                if a.is_trivial(l) and a.is_trivial(r)]
    return chain_complex(
        [[g for g in source.generators(k) if g[0] == e and a.head(g[-1]) == w]
         for k in range(source.top + 1)], boundary, ring)
