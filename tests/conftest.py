import pathlib

import pytest
from hypothesis import strategies as st

from hpa import RING_Z
from hpa.algebra import HPA, RelationSet, Report, free_algebra, tensor
from hpa.dsl import parse_quiver
from hpa.linalg import accumulate
from hpa.morse import _critical_cells, _gradient_flow, _maximal_chains
from hpa.quiver import Quiver, enumerate_paths, linear_quiver
from hpa.realization import chain_complex
from hpa.resolution import h_minus_one, multiply_augmentation

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / 'fixtures'


def load_algebra(name):
    return HPA(parse_quiver((FIXTURES / name).read_text())[1])


def words_by_class(a):
    """The path words of a's quiver grouped by class: {class id: [words]},
    each list in word_key order."""
    groups = {}
    for w in enumerate_paths(a.quiver):
        groups.setdefault(a.word_class(w), []).append(w)
    return groups


def matmul(A, B):
    """Product of two dense integer matrices (lists of rows)."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def determinant(M):
    """Exact determinant (Bareiss fraction-free), to test unimodularity."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(map(int, row)) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def check_semisimplicial(complex_):
    """Exhaustively verify the face identities d_i d_j = d_{j-1} d_i (i < j)
    and regularity (pairwise distinct facets).  Returns list of violations."""
    bad = []
    for k in range(2, complex_.max_dim + 1):
        for cell in complex_.cells[k]:
            faces = complex_.faces(cell)
            if len(set(faces)) != len(faces):
                bad.append(('facets not distinct', cell))
            for j in range(1, k + 1):
                fj = complex_.faces(faces[j])
                for i in range(j):
                    fi = complex_.faces(faces[i])
                    if fj[i] != fi[j - 1]:
                        bad.append(('identity fails', cell, i, j))
    for cell in complex_.cells[1] if complex_.max_dim >= 1 else []:
        faces = complex_.faces(cell)
        if len(set(faces)) != len(faces):
            bad.append(('facets not distinct', cell))
    return bad


def gradient_path_counts(c, m):
    """Number of alternating gradient paths between critical cells, as
    {(top cell, target cell): count}, from the gradient-flow walk with every
    coefficient read as 1."""
    x = c.complex
    counts = {}
    critical = _critical_cells(x, m)

    def matched_flow(tau, s, deps):
        acc = {}
        for _, flow in deps:
            for tgt, n in flow.items():
                accumulate(acc, tgt, n)
        return acc

    for k in range(1, x.max_dim + 1):
        count_of = _gradient_flow(x.boundary, m, lambda s: {s: 1},
                                  matched_flow)
        for tau in critical[k]:
            for f in x.faces(tau):
                for tgt, n in count_of(f).items():
                    accumulate(counts, (tau, tgt), n)
    return counts


def matching_to_json(m):
    """The matching file format that hpa.morse.matching_from_json reads."""
    x = m.complex

    def cell_json(cell):
        return {'tail': x.tail(cell),
                'chain': [list(x.hpa.cls(c).rep.labels) for c in cell]}
    return {'pairs': [{'top': cell_json(t), 'bottom': cell_json(b)}
                      for t, b in m.pairs]}


def bhk_algebra(d_total, charges):
    """Tensor of linear quivers A_{d_total/r - 1}, one factor per charge r.
    Each charge must divide d_total."""
    if not charges:
        raise ValueError("need at least one charge")
    factors = []
    for i, r in enumerate(charges):
        if r <= 0 or d_total % r:
            raise ValueError(f"charge {r} does not divide {d_total}")
        k = d_total // r - 1
        if k < 1:
            raise ValueError(f"charge {r} gives an empty factor")
        factors.append(free_algebra(
            linear_quiver(k, vertex_prefix=f"u{i}_", arrow_prefix=f"s{i}_")))
    out = factors[0]
    for f in factors[1:]:
        out = tensor(out, f)
    return out


def basis(c, k):
    """All degree-k module basis triples (a, cell, b) of a bimodule complex."""
    a = c.hpa
    for cell in c.generators(k):
        t = a.tail(cell[0])
        h = a.head(cell[-1])
        for ac in a.classes_by_head[t]:
            for bc in a.classes_by_tail[h]:
                yield (ac, cell, bc)


def d_element(c, elem):
    """Differential of an element {(a, cell, b): coef}."""
    a = c.hpa
    out = {}
    for (ac, cell, bc), coef in elem.items():
        for sign, l, face, r in c.terms(cell):
            accumulate(out, (a.mult(ac, l), face, a.mult(r, bc)), sign * coef)
    return out


def reference_d_squared(c):
    """Reference for `resolution.verify_d_squared`: every coefficient
    product goes through `mult`, trivial factors included."""
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


def reference_homotopy_check(a, c):
    """Reference for `resolution.contracting_homotopy_check`: d h + h d
    (d h + h_{-1} m in degree 0) evaluated afresh on every basis triple."""
    failures = []
    checked = 0
    for k in range(0, c.top + 1):
        for triple in basis(c, k):
            checked += 1
            x = {triple: 1}
            lhs = d_element(c, c.h_element(x))
            if k == 0:
                other = h_minus_one(c, multiply_augmentation(c, x))
            else:
                other = c.h_element(d_element(c, x))
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


def bimodule_chain_complex(c, ring=RING_Z):
    """The underlying chain complex of free k-modules with basis all triples
    (a, cell, b); used for augmentation/exactness rank checks."""
    a = c.hpa

    def boundary(triple):
        ac, cell, bc = triple
        return [(sign, (a.mult(ac, l), face, a.mult(r, bc)))
                for sign, l, face, r in c.terms(cell)]
    return chain_complex([list(basis(c, k)) for k in range(c.top + 1)],
                         boundary, ring)


def el_every_subinterval(a, p, ranks):
    """Reference for `invariants.el_shellable`, checked on every closed
    subinterval [u, w] of [e_{t(p)}, p] directly: exactly one weakly
    increasing maximal chain, and it is lexicographically least.  A cover
    is ranked (`ranks`, keyed by arrow label) by the least arrow label of
    its class."""
    e = a.trivial_class[a.tail(p)]
    elems = [e] + sorted(a.open_interval(p)) + [p]
    label_of = {}  # arrow class -> its least arrow label
    for label in sorted(a.arrow_class):
        label_of.setdefault(a.arrow_class[label], label)

    def chain_ranks(chain):
        return tuple(ranks[label_of[a.divide(z1, z2)]]
                     for z1, z2 in zip(chain, chain[1:]))

    for u in elems:
        for w in elems:
            if u == w or not a.leq(u, w):
                continue
            chains = [(u,) + ch + (w,) for ch in _maximal_chains(a, u, w)]
            labeled = [(chain_ranks(ch), ch) for ch in chains]
            increasing = [lc for lc in labeled
                          if all(x <= y for x, y in zip(lc[0], lc[0][1:]))]
            if len(increasing) != 1 or min(labeled)[1] != increasing[0][1]:
                return False
    return True


@st.composite
def algebras(draw, with_relations=False):
    """Random acyclic quivers (up to 5 vertices, declared in a shuffled
    order, and 7 arrows) with random relation groups, so some algebras are
    not cancellative and some are not graded.  With with_relations, the
    first arrow is doubled, so parallel paths exist, and at least one
    relation group is drawn."""
    n = draw(st.integers(2 if with_relations else 1, 5))
    vertices = [f"v{i}" for i in range(n)]
    # an arrow runs from a tail to a later vertex, so the quiver is acyclic
    edges = st.integers(0, n - 2).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(s + 1, n - 1))
    ) if n > 1 else st.nothing()
    pairs = draw(st.lists(edges, min_size=int(with_relations),
                          max_size=7)) if n > 1 else []
    if with_relations:
        pairs.append(pairs[0])
    q = Quiver(draw(st.permutations(vertices)),
               [(f"a{i}", vertices[s], vertices[t])
                for i, (s, t) in enumerate(pairs)])
    parallel = {}
    for w in enumerate_paths(q):
        parallel.setdefault((w.tail, w.head), []).append(w)
    keys = sorted(k for k, ws in parallel.items() if len(ws) >= 2)
    groups = []
    if keys:
        for key in draw(st.lists(st.sampled_from(keys),
                                 min_size=int(with_relations), max_size=3)):
            used = {w for g in groups for w in g}
            free = [w for w in parallel[key] if w not in used]
            if len(free) >= 2:
                groups.append(draw(st.lists(st.sampled_from(free), min_size=2,
                                            max_size=len(free), unique=True)))
    return HPA(RelationSet(q, groups))


@pytest.fixture(scope='session')
def p2():
    return load_algebra('p2.quiver')


@pytest.fixture(scope='session')
def f3():
    return load_algebra('f3.quiver')


@pytest.fixture(scope='session')
def f1():
    return load_algebra('f1.quiver')


@pytest.fixture(scope='session')
def p113():
    return load_algebra('p113.quiver')


@pytest.fixture(scope='session')
def a3a3():
    from hpa.algebra import tensor
    return tensor(free_algebra(linear_quiver(3)),
                  free_algebra(linear_quiver(3, vertex_prefix='w',
                                             arrow_prefix='b')))
