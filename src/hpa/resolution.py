"""Cellular bimodule resolution of a path algebra.

Degree-k generators are the k-cells of the realization; the generator for a
cell spans P_{t(cell)} (x) P^op_{h(cell)}.  The differential carries the face
maps: face 0 emits the left coefficient p_1, the top face emits the right
coefficient p_k / p_{k-1}, middle faces have trivial coefficients, and the
sign of face i is (-1)^i.  Elements are stored as dicts
{(left class, cell, right class): integer coefficient}.
"""

from .algebra import Report, require_cancellative
from .linalg import accumulate
from .realization import RING_Z, build_realization, chain_complex


class ResolutionError(ValueError):
    pass


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
                raise ResolutionError(f"homotopy left the complex: {new}")
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
                    accumulate(acc, (c.hpa.mult(l1, l2), f2,
                                     c.hpa.mult(r2, r1)), s1 * s2)
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


def contracting_homotopy_check(a, c):
    """Verify d h + h d = id on every module basis element, plus
    m h_{-1} = id on the algebra.  Exactness of the resolution follows."""
    failures = []
    checked = 0
    for k in range(0, c.top + 1):
        for triple in c.basis(k):
            checked += 1
            x = {triple: 1}
            lhs = c.d_element(c.h_element(x))
            if k == 0:
                other = h_minus_one(c, multiply_augmentation(c, x))
            else:
                other = c.h_element(c.d_element(x))
            for key, coef in other.items():
                accumulate(lhs, key, coef)
            if lhs != x:
                failures.append((triple, lhs))
    for cls in range(len(a.classes)):
        checked += 1
        out = multiply_augmentation(c, h_minus_one(c, {cls: 1}))
        if out != {cls: 1}:
            failures.append((('algebra', cls), out))
    return Report(failures, checked)


def generators_by_ends(source):
    """{(tail, head): [generators of degree k for k = 0..top]} of a complex
    with a generators() interface, in one pass."""
    a = source.hpa
    out = {}
    for k in range(source.top + 1):
        for cell in source.generators(k):
            ends = (a.tail(cell[0]), a.head(cell[-1]))
            if ends not in out:
                out[ends] = [[] for _ in range(source.top + 1)]
            out[ends][k].append(cell)
    return out


def simple_tensor_complex(source, v, w, ring=RING_Z, by_ends=None):
    """S_v (x) C (x) S_w for a complex with a terms() interface: keep
    generators with tail v and head w, and differential terms whose two
    coefficients are both trivial.  by_ends, from generators_by_ends(source),
    saves the scan over all generators when many pairs are wanted."""
    a = source.hpa
    if by_ends is None:
        by_ends = generators_by_ends(source)

    def boundary(cell):
        return [(sign, face) for sign, l, face, r in source.terms(cell)
                if a.is_trivial(l) and a.is_trivial(r)]
    return chain_complex(by_ends.get((v, w), [[]]), boundary, ring)
