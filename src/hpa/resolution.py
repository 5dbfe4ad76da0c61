"""Cellular bimodule resolution of a path algebra.

Degree-k generators are the k-cells of the realization; the generator for a
cell spans P_{t(cell)} (x) P^op_{h(cell)}.  The differential carries the face
maps: face 0 emits the left coefficient p_1, the top face emits the right
coefficient p_k / p_{k-1}, middle faces have trivial coefficients, and the
sign of face i is (-1)^i.  Elements are stored as dicts
{(left class, cell, right class): integer coefficient}.
"""

from .algebra import Report, require_cancellative
from .linalg import SparseMat, accumulate
from .realization import RING_Z, ChainComplex, build_realization


class BimoduleComplex:
    def __init__(self, hpa, complex_):
        self.hpa = hpa
        self.complex = complex_
        self._diff = {}

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

    # -- element algebra ----------------------------------------------------

    def d_element(self, elem):
        """Differential of an element {(a, cell, b): coef}."""
        a = self.hpa
        out = {}
        for (ac, cell, bc), coef in elem.items():
            for sign, l, face, r in self.terms(cell):
                accumulate(out, (a.mult(ac, l), face, a.mult(r, bc)),
                           sign * coef)
        return out

    def h_element(self, elem):
        """Contracting homotopy: insert the left coefficient into the chain.
        Zero on terms whose left coefficient is trivial."""
        a = self.hpa
        out = {}
        for (ac, cell, bc), coef in elem.items():
            if a.is_trivial(ac):
                continue
            chain = [a.trivial_class[a.tail(ac)], ac]
            for p in cell[1:]:
                chain.append(a.mult(ac, p))
            new = tuple(chain)
            if new not in self.complex.index:
                raise AssertionError(
                    f"homotopy left the complex: {new}")
            accumulate(out, (a.trivial_class[a.tail(ac)], new, bc), coef)
        return out

    def basis(self, k):
        """All degree-k module basis triples (a, cell, b)."""
        a = self.hpa
        for cell in self.generators(k):
            t = a.tail(cell[0])
            h = a.head(cell[-1])
            for ac in a.classes_by_head[t]:
                for bc in a.classes_by_tail[h]:
                    yield (ac, cell, bc)


def cellular_resolution(a, x=None):
    """Bimodule resolution supported on the cell complex x (built from a when
    omitted).  Refuses a non-cancellative algebra."""
    require_cancellative(a)
    if x is None:
        x = build_realization(a)
    return BimoduleComplex(a, x)


def verify_d_squared(c):
    """Symbolic d^2 = 0 on every generator, collecting like terms by
    (left class, cell, right class)."""
    failures = []
    checked = 0
    for k in range(2, c.top + 1):
        for cell in c.generators(k):
            checked += 1
            acc = {}
            for s1, l1, f1, r1 in c.terms(cell):
                for s2, l2, f2, r2 in c.terms(f1):
                    key = (c.hpa.mult(l1, l2), f2, c.hpa.mult(r2, r1))
                    acc[key] = acc.get(key, 0) + s1 * s2
            bad = {k2: v for k2, v in acc.items() if v}
            if bad:
                failures.append((cell, bad))
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
        key = (a.trivial_class[v], (a.trivial_class[v],), cls)
        out[key] = out.get(key, 0) + coef
    return out


def contracting_homotopy_check(a, c):
    """Verify d h + h d = id on every module basis element, plus
    m h_{-1} = id on the algebra.  Exactness of the resolution follows."""
    failures = []
    checked = 0
    for k in range(0, c.top + 1):
        for triple in c.basis(k):
            checked += 1
            x = {triple: 1}
            if k == 0:
                lhs = c.d_element(c.h_element(x))
                for key, coef in h_minus_one(c, multiply_augmentation(c, x)).items():
                    lhs[key] = lhs.get(key, 0) + coef
            else:
                lhs = c.d_element(c.h_element(x))
                for key, coef in c.h_element(c.d_element(x)).items():
                    lhs[key] = lhs.get(key, 0) + coef
            lhs = {k2: v for k2, v in lhs.items() if v}
            if lhs != x:
                failures.append((triple, lhs))
    for cls in range(len(a.classes)):
        checked += 1
        out = multiply_augmentation(c, h_minus_one(c, {cls: 1}))
        if out != {cls: 1}:
            failures.append((('algebra', cls), out))
    return Report(failures, checked)


def simple_tensor_complex(source, v, w, ring=RING_Z):
    """S_v (x) C (x) S_w for a complex with a terms() interface: keep
    generators with tail v and head w, and differential terms whose two
    coefficients are both trivial."""
    a = source.hpa
    gens = []
    index = []
    for k in range(source.top + 1):
        sel = [cell for cell in source.generators(k)
               if a.tail(cell[0]) == v and a.head(cell[-1]) == w]
        gens.append(sel)
        index.append({cell: i for i, cell in enumerate(sel)})
    dims = [len(g) for g in gens]
    d = [None]
    for k in range(1, source.top + 1):
        mat = SparseMat(dims[k - 1], dims[k])
        for j, cell in enumerate(gens[k]):
            for sign, l, face, r in source.terms(cell):
                if a.is_trivial(l) and a.is_trivial(r):
                    i = index[k - 1].get(face)
                    if i is None:
                        continue
                    mat[i, j] = mat[i, j] + sign
        d.append(mat)
    while len(dims) > 1 and dims[-1] == 0:
        dims.pop()
        d.pop()
    return ChainComplex(dims, d, ring)


def bimodule_chain_complex(c, ring=RING_Z):
    """The underlying chain complex of free k-modules with basis all triples
    (a, cell, b); used for augmentation/exactness rank checks."""
    bases = []
    index = []
    for k in range(c.top + 1):
        b = list(c.basis(k))
        bases.append(b)
        index.append({t: i for i, t in enumerate(b)})
    dims = [len(b) for b in bases]
    d = [None]
    a = c.hpa
    for k in range(1, c.top + 1):
        mat = SparseMat(dims[k - 1], dims[k])
        for j, (ac, cell, bc) in enumerate(bases[k]):
            for sign, l, face, r in c.terms(cell):
                key = (a.mult(ac, l), face, a.mult(r, bc))
                i = index[k - 1][key]
                mat[i, j] = mat[i, j] + sign
        d.append(mat)
    return ChainComplex(dims, d, ring)
