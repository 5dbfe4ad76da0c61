import pathlib
from collections import deque
from itertools import combinations, compress, permutations, repeat
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from hpa import RING_Z
from hpa.algebra import HPA, PathClass, RelationSet, Report, tensor
from hpa.dsl import parse_quiver
from hpa.invariants import nonzero_groups
from hpa.linalg import homology
from hpa.quiver import Arrow, PathWord, Quiver, enumerate_paths
from hpa.morse import Matching
from hpa.realization import accumulate, faces, lex_shelling, maximal_chains
from hpa.resolution import (BimoduleComplex, h_minus_one,
                            multiply_augmentation, simple_tensor_complex)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / 'fixtures'
BENCHMARK_INPUTS = FIXTURES.parent / 'perfbench' / 'inputs'

# cancellative but not graded by length: the arrow x is the path s t
UNGRADED = ("vertices: u m v w\n"
            "arrows:\n  s: u -> m\n  t: m -> v\n  x: u -> v\n  y: v -> w\n"
            "relations:\n  x = s t\n")


def load_algebra(name, folder=FIXTURES):
    return HPA(parse_quiver((folder / name).read_text())[1])


def linear_quiver(k, vertex_prefix='v', arrow_prefix='a'):
    """The A-type linear quiver with k arrows and k+1 vertices:
    v0 -a1-> v1 -a2-> ... -ak-> vk."""
    vertices = [f"{vertex_prefix}{i}" for i in range(k + 1)]
    arrows = [Arrow(f"{arrow_prefix}{i}", f"{vertex_prefix}{i-1}",
                    f"{vertex_prefix}{i}") for i in range(1, k + 1)]
    return Quiver(vertices, arrows)


def free_algebra(q):
    """The path algebra of q with no relations."""
    return HPA(RelationSet(q, []))


def tensor_simples(c, v, w):
    """(cells, boundary) of S_v (x) c (x) S_w for `linalg.homology`:
    the (v, w) block of `resolution.simple_tensor_complex`, or c.top + 1
    empty degrees when no generator of c lies on that pair."""
    blocks, boundary = simple_tensor_complex(c)
    return blocks.get((v, w), [[] for _ in range(c.top + 1)]), boundary


def classes_between(a, v, w):
    """The ids of the classes from v to w, in id order."""
    return [c for c in a.classes_by_tail[v] if a.head(c) == w]


def tor_via_resolution(a, c, v, w, ring=RING_Z):
    """Homology of S_v (x) c (x) S_w in the sparse shape of
    `invariants.tor_table`; c is a cellular resolution or a Morse
    complex."""
    return nonzero_groups(homology(*tensor_simples(c, v, w), ring))


def open_interval(a, p):
    """Classes strictly between the trivial class at tail(p) and p, found
    by scanning every class that starts at tail(p)."""
    return [c for c in a.classes_by_tail[a.tail(p)]
            if c != p and not a.is_trivial(c) and a.leq(c, p)]


def order_complex(elements, leq):
    """Simplices of the order complex of a finite poset, given by its
    elements and a leq predicate, found by a DFS over every chain rather
    than from maximal chains: a sorted list of tuples in poset order per
    dimension, the vertices first."""
    above = {e: [f for f in elements if f != e and leq(e, f)]
             for e in elements}
    sims = []
    stack = [(e,) for e in sorted(elements, reverse=True)]
    while stack:
        chain = stack.pop()
        while len(sims) < len(chain):
            sims.append([])
        sims[len(chain) - 1].append(chain)
        stack.extend(chain + (f,) for f in above[chain[-1]])
    return [sorted(s) for s in sims]


def interval_order_complex(a, p):
    """`order_complex` of the open interval (e_{t(p)}, p)."""
    return order_complex(open_interval(a, p), a.leq)


def order_complex_homology(simplices, ring=RING_Z):
    """Reference for `invariants.reduced_homology`: {k: (rank, torsion)},
    k >= -1, of the complex with the given simplices per dimension, the
    empty simplex added in degree 0."""
    def boundary(s):
        return [((-1) ** i, s[:i] + s[i + 1:]) for i in range(len(s))]
    h = homology([[()]] + simplices, boundary, ring)
    return {j - 1: (rank, tors) for j, (rank, tors) in h.items()
            if rank or tors}


def tor_via_intervals(a, v, w, ring=RING_Z):
    """Reference for `invariants.tor_table`: Tor_i(S_v, S_w) as the sum,
    over the nontrivial classes p from v to w, of the reduced homology
    H~_{i-2} of the order complex of (e_{t(p)}, p), each interval
    eliminated, whether or not it is shellable; plus R in degree 0 when
    v = w.  The order complex comes from `interval_order_complex`, not from
    maximal chains."""
    acc = {0: (1, [])} if v == w else {}
    for p in classes_between(a, v, w):
        if a.is_trivial(p):
            continue
        h = order_complex_homology(interval_order_complex(a, p), ring)
        for k, (rank, tors) in h.items():
            r, t = acc.get(k + 2, (0, []))
            acc[k + 2] = (r + rank, t + tors)
    return nonzero_groups(acc)


# the 6-vertex RP^2, a triangle written as its vertices' digits
RP2_TRIANGLES = '124 126 135 136 145 234 235 256 346 456'.split()


def simplicial_faces(facets):
    """The nonempty faces of the simplicial complex that the facets (each
    an iterable of sortable vertices) generate, as sorted tuples, by
    dimension and then lexicographically."""
    return sorted({s for f in facets for k in range(1, len(f) + 1)
                   for s in combinations(sorted(f), k)},
                  key=lambda s: (len(s), s))


def subdivide(facets):
    """Facets of the barycentric subdivision: each facet's flags of faces,
    a face written as its place in `simplicial_faces(facets)`, so the
    flags are increasing tuples of ints."""
    index = {s: i for i, s in enumerate(simplicial_faces(facets))}
    return sorted({tuple(index[tuple(sorted(p[:j]))]
                         for j in range(1, len(p) + 1))
                   for f in facets for p in permutations(f)})


def poset_dsl(elements, covers):
    """Quiver DSL of the incidence algebra of a finite graded poset, given
    by its element names and cover pairs (x, y), y covering x: one arrow
    x<y per cover, in the order given, and for each x < z two covers apart
    the group of the paths x -> y -> z when there are several (a diamond,
    in a face poset).  Further apart, the paths from x to z through two
    covers y, y' of x are equal already when some w < z lies above both,
    the paths x -> w and w -> z being equal; when the covers of x below z
    fall into several classes so, a group of one path through each class
    follows the diamonds.  A face poset, whose intervals are boolean, has
    no such group."""
    lines = ['vertices: ' + ' '.join(elements)]
    up = {}
    for x, y in covers:
        up.setdefault(x, []).append(y)
    if covers:
        lines.append('arrows:')
        lines += [f'  {x}<{y}: {x} -> {y}' for x, y in covers]
    above = {}

    def ups(x):
        if x not in above:
            above[x] = set(up.get(x, ()))
            for y in up.get(x, ()):
                above[x] |= ups(y)
        return above[x]

    def path(x, z):  # the first path of covers from x to z
        word = []
        while x != z:
            x, y = next(y for y in up[x] if y == z or z in ups(y)), x
            word.append(f'{y}<{x}')
        return ' '.join(word)
    groups, apart = [], []
    for x in elements:
        paths = {}
        for y in up.get(x, ()):
            for z in up.get(y, ()):
                paths.setdefault(z, []).append(f'{x}<{y} {y}<{z}')
        groups += ['  ' + ' = '.join(ws) for ws in paths.values()
                   if len(ws) > 1]
        for z in elements:
            if z in paths or z in up.get(x, ()) or z not in ups(x):
                continue
            classes = []
            for y in (y for y in up[x] if z in ups(y)):
                joined = [c for c in classes if any(
                    z in ups(w) for y2 in c for w in ups(y) & ups(y2))]
                classes = [c for c in classes if c not in joined]
                classes.append([y2 for c in joined for y2 in c] + [y])
            if len(classes) > 1:
                apart.append('  ' + ' = '.join(
                    f'{x}<{c[0]} ' + path(c[0], z) for c in classes))
    if groups + apart:
        lines += ['relations:'] + groups + apart
    return '\n'.join(lines) + '\n'


def face_poset(facets):
    """(element names, covers) of the face poset of the simplicial complex
    with the given facets: a face is named by its vertices joined with
    '.', and face s covers each face s less one vertex."""
    faces = simplicial_faces(facets)
    name = {s: '.'.join(map(str, s)) for s in faces}
    return [name[s] for s in faces], [
        (name[s[:i] + s[i + 1:]], name[s])
        for s in faces if len(s) > 1 for i in range(len(s))]


def exit_path_dsl(facets, k=0):
    """Quiver DSL of the exit-path algebra of the simplicial complex with
    the given facets after k barycentric subdivisions, stratified by its
    open simplices: the incidence algebra of its face poset, whose
    realization is the order complex of that poset, one more subdivision
    of the complex."""
    for _ in range(k):
        facets = subdivide(facets)
    return poset_dsl(*face_poset(facets))


def bounded_rp2_dsl():
    """`poset_dsl` of the face poset of the 6-vertex RP^2 with a bottom bot
    below every vertex and two tops, topA and topB, above every triangle.
    topA is declared first, but the arrows into topB come first, so the
    class from bot to topB precedes the one to topA.  Each open interval
    (bot, top) is the face poset of RP^2, so Tor_3(S_bot, S_top) = Z/2."""
    names, covers = face_poset(RP2_TRIANGLES)
    triangles = [n for n in names if n.count('.') == 2]
    covers = ([('bot', n) for n in names if '.' not in n] + covers +
              [(t, top) for top in ('topB', 'topA') for t in triangles])
    return poset_dsl(['bot'] + names + ['topA', 'topB'], covers)


def simplicial_homology(facets, ring=RING_Z):
    """H(K) of the simplicial complex K with the given facets, from K's own
    boundary matrices (face i of a simplex with sign (-1)^i) through
    `matrix_complex`; the last matrix has no columns, so there is always
    one."""
    faces = simplicial_faces(facets)
    by_dim = [[s for s in faces if len(s) == k]
              for k in range(1, len(faces[-1]) + 2)]

    def coef(f, s):
        return sum((-1) ** i for i in range(len(s)) if s[:i] + s[i + 1:] == f)
    return homology(*matrix_complex(*[
        [[coef(f, s) for s in up] for f in down]
        for down, up in zip(by_dim, by_dim[1:])]), ring)


def matrix_complex(*ds):
    """(cells, boundary) for `linalg.homology` of the complex whose
    d_k is the dense matrix ds[k - 1]: cell (k, j) is basis vector j of
    degree k, and the rows of d_k run over the cells of degree k - 1."""
    cells = [[(0, i) for i in range(len(ds[0]))]]
    cells += [[(k, j) for j in range(len(d[0]))] for k, d in enumerate(ds, 1)]

    def boundary(cell):
        k, j = cell
        return [(row[j], (k - 1, i)) for i, row in enumerate(ds[k - 1])
                if row[j]]
    return cells, boundary


def cell_faces(x, cell):
    """The k+1 facets of a k-cell of the CellComplex x, position i giving
    the i-th face, read off its face table; none for a vertex cell."""
    return x.face[x.at[cell]:x.at[cell + 1]]


def cell_of(x, chain):
    """The cell of the CellComplex x with the given chain, or None."""
    cell = x.vertex.get(x.hpa.tail(chain[0]))
    if cell is not None and x.last[cell] == chain[0]:
        return x.child(cell, *chain[1:])


def cell_matching(x, pairs):
    """The pairs (top, bottom) of chains over the cells of the CellComplex
    x: `top[b]` is the top matched with bottom b and `bottom[t]` the bottom
    matched with top t, -1 for a cell not matched that way, and `pairs`
    the pairs of ids.  A pair whose top x does not hold is left out (a
    bottom at the cap whose top lies above it)."""
    top, bottom = [-1] * len(x.last), [-1] * len(x.last)
    ids = [(cell_of(x, t), cell_of(x, b)) for t, b in pairs]
    ids = [(t, b) for t, b in ids if t is not None]
    for t, b in ids:
        top[b], bottom[t] = t, b
    return SimpleNamespace(complex=x, top=top, bottom=bottom, pairs=ids)


def morse_pairs(m, x):
    """The pairs (top, bottom) of chains that the partner rule of the
    matching m matches among the cells of the CellComplex x."""
    return [(match[0], c) for c in map(x.chain, range(len(x.last)))
            if (match := m.partner(c)) and cell_of(x, match[0]) is not None]


def morse_homology(m, ring=RING_Z):
    """The cellular homology of the complex m.complex, with (0, []) in the
    degrees it lacks, computed on the Morse complex of its resolution under
    the matching m (a `cell_matching`) with the coefficients forgotten: the
    boundary of a critical tau is the sum of cf . target over its terms
    (cf, l, target, r).  A complex truncated by max_dim reports only the
    degrees below its cap, whose homology it determines.  d^2 = 0 is
    checked symbolically on every cell first (d_squared_degree), and the
    matching must be internal and acyclic.  The differential is
    reference_morse_terms, a sum over the gradient paths of the cells: the
    eager oracle for `realization.realization_homology` and
    `hpa.morse.MorseComplex`, which build no complex."""
    x = m.complex
    bad = d_squared_degree(x)
    if bad is not None:
        raise ValueError(f"d^2 != 0 at degree {bad}")
    c = BimoduleComplex(x.hpa, x)
    h = homology(critical_cells(m), lambda tau: [
        (cf, tgt) for cf, _, tgt, _ in reference_morse_terms(c, m, tau)],
        ring)
    return {k: h.get(k, (0, [])) for k in range(x.max_dim + 1 - x.truncated)}


def d_squared_degree(x):
    """The first degree k with d(d(cell)) != 0 for some k-cell of the
    CellComplex x, or None.  Symbolic: the faces of faces that enter with
    sign +1 and those with sign -1 must agree as multisets.  The face
    identities d_i d_j = d_{j-1} d_i (i < j) pair every face of a face with
    one of opposite sign, so a dimension whose cells all satisfy them
    passes; they are tested a column at a time (identities_hold).  A
    dimension where some column differs is decided cell by cell, by
    comparing the two multisets."""
    face, at = x.face, x.at
    for k in range(2, x.max_dim + 1):
        if identities_hold(face, at, k, *x.cells[k - 1:k + 1]):
            continue
        for cell in x.cells[k]:
            sub = [face[at[f]:at[f + 1]]
                   for f in face[at[cell]:at[cell + 1]]]
            # face j of face i enters with sign (-1)^(i + j)
            plus, minus = [sorted(g for i, fs in enumerate(sub)
                                  for g in fs[(i + s) % 2::2])
                           for s in (0, 1)]
            if plus != minus:
                return k
    return None


def identities_hold(face, at, k, below, cells):
    """Whether d_i d_j = d_{j-1} d_i (i < j) holds on the k-cells `cells`.
    When each has k + 1 faces among the (k-1)-cells `below`, and each of
    those k faces, face j of every k-cell is a strided slice of the face
    table and face i of those is read at offset at[f] + i, so that each
    identity is one list comparison; otherwise False."""
    for cs, n in ((below, k), (cells, k + 1)):
        ends = at[cs.start:cs.stop + 1]
        if ends != list(range(ends[0], ends[-1] + 1, n)):
            return False
    offsets = []  # offsets[j][m]: where the faces of face j of cell m begin
    for j in range(k + 1):
        fs = face[at[cells.start] + j:at[cells.stop]:k + 1]
        if min(fs) < below.start or max(fs) >= below.stop:
            return False
        offsets.append(list(map(at.__getitem__, fs)))

    def faces_of(j, i):
        return list(map(face.__getitem__, map(add, offsets[j], repeat(i))))
    return all(faces_of(j, i) == faces_of(i, j - 1)
               for j in range(1, k + 1) for i in range(j))


def cellular_homology(x, ring=RING_Z):
    """Reference for `morse_homology`: the cellular chain complex of
    the CellComplex x, facet i of a cell entering its boundary with sign
    (-1)^i, eliminated degree by degree.  A truncated complex omits its top
    degree, whose homology the cap does not determine."""
    def boundary(cell):
        return [(-1 if i % 2 else 1, f)
                for i, f in enumerate(cell_faces(x, cell))]
    h = homology(x.cells, boundary, ring)
    return {k: h[k] for k in range(len(h) - x.truncated)}


def words_by_class(a):
    """The path words of a's quiver grouped by class: {class id: [words]},
    each list in word_key order."""
    groups = {}
    for w in enumerate_paths(a.quiver):
        groups.setdefault(a.word_class(w), []).append(w)
    return groups


def determinant(M):
    """Exact determinant (Bareiss fraction-free), to test saturation."""
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
            faces = cell_faces(complex_, cell)
            if len(set(faces)) != len(faces):
                bad.append(('facets not distinct', cell))
            for j in range(1, k + 1):
                fj = cell_faces(complex_, faces[j])
                for i in range(j):
                    fi = cell_faces(complex_, faces[i])
                    if fj[i] != fi[j - 1]:
                        bad.append(('identity fails', cell, i, j))
    for cell in complex_.cells[1] if complex_.max_dim >= 1 else []:
        faces = cell_faces(complex_, cell)
        if len(set(faces)) != len(faces):
            bad.append(('facets not distinct', cell))
    return bad


class Mutant:
    """Deliberately corrupt the differential of one cell of base, a
    resolution or a Morse complex: terms(victim) is edit applied to base's
    terms of it, and every other attribute is base's."""

    def __init__(self, base, victim, edit):
        self.base = base
        self.victim = victim
        self.edit = edit

    def __getattr__(self, name):  # what the mutant does not set itself
        if name == 'base':  # not set yet, as in copy.copy
            raise AttributeError(name)
        return getattr(self.base, name)

    def terms(self, cell):
        out = self.base.terms(cell)
        return self.edit(out) if cell == self.victim else out


def gradient_path_counts(c, m):
    """Number of alternating gradient paths between critical cells, as
    {(top cell, target cell): count}: every path from a face of a critical
    cell down to a critical cell, through matched bottoms and up to their
    tops, each path counted once."""
    x = c.complex
    counts = {}

    def count_from(s, tau):
        if m.bottom[s] >= 0:  # matched downward: no path goes on
            return
        if m.top[s] < 0:
            accumulate(counts, (tau, s), 1)
            return
        for f in cell_faces(x, m.top[s]):
            if f != s:
                count_from(f, tau)

    for cells in critical_cells(m)[1:]:
        for tau in cells:
            for f in cell_faces(x, tau):
                count_from(f, tau)
    return counts


def critical_cells(m):
    """The cells of m.complex that the matching m leaves unmatched, by
    dimension."""
    x = m.complex
    return [[c for c in x.cells[k] if m.top[c] < 0 and m.bottom[c] < 0]
            for k in range(x.max_dim + 1)]


def reference_morse_terms(c, m, tau):
    """The Morse differential of a critical cell tau from its definition:
    the sum over every alternating path tau > f_0 < t_0 > f_1 < ... > f_n
    with f_n critical and t_i = m.top[f_i].  A step down to f takes the
    term (sign, l, f, r) of c.terms of the cell above, a step up from f_i
    to t_i multiplies by -eps, eps the sign of f_i in c.terms(t_i) (its
    classes trivial), and the classes compose with a.mult.  Returns the
    terms (coef, l, target, r) sorted by (l, target, r), zero sums
    dropped."""
    a = c.hpa
    total = {}

    def expand(coef, l, s, r):
        if m.bottom[s] >= 0:
            return
        if m.top[s] < 0:
            total[l, s, r] = total.get((l, s, r), 0) + coef
            return
        up = c.terms(m.top[s])
        [(eps, el, _, er)] = [t for t in up if t[2] == s]
        assert eps in (1, -1) and a.is_trivial(el) and a.is_trivial(er)
        for sign, l2, f, r2 in up:
            if f != s:
                expand(-eps * sign * coef, a.mult(l, l2), f, a.mult(r2, r))

    for sign, l, f, r in c.terms(tau):
        expand(sign, l, f, r)
    return [(coef, l, tgt, r)
            for (l, tgt, r), coef in sorted(total.items()) if coef]


def matching_to_json(a, pairs):
    """The matching file format that hpa.morse.matching_from_json reads, of
    the pairs (top, bottom) of chains."""
    def cell_json(chain):
        return {'tail': a.tail(chain[0]),
                'chain': [list(a.cls(c).rep.labels) for c in chain]}
    return {'pairs': [{'top': cell_json(t), 'bottom': cell_json(b)}
                      for t, b in pairs]}


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
        t = a.tail(c.complex.last[cell])
        h = a.head(c.complex.last[cell])
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


def reference_faces(a, chain):
    """The faces of a chain (e, p_1, ..., p_k) of class ids by slicing:
    face i > 0 deletes p_i, and face 0 deletes e and rebases the rest
    through p_1, or is the vertex at the head of p_1 for k = 1."""
    p1 = chain[1]
    first = (a.trivial_class[a.head(p1)],) + tuple(
        a.divide(p1, p) for p in chain[2:])
    return [first] + [chain[:i] + chain[i + 1:]
                      for i in range(1, len(chain))]


def reference_d_squared_degree(complex_):
    """Reference for `d_squared_degree`: on every cell, the faces
    of faces that enter with sign +1 and those with sign -1 agree as
    multisets."""
    for k in range(2, complex_.max_dim + 1):
        for cell in complex_.cells[k]:
            signed = ([], [])
            for i, f in enumerate(cell_faces(complex_, cell)):
                for j, g in enumerate(cell_faces(complex_, f)):
                    signed[(i + j) % 2].append(g)
            if sorted(signed[0]) != sorted(signed[1]):
                return k
    return None


def reference_lex_shelling(a, p):
    """Reference for `realization.lex_shelling`, on frozensets: every face
    of every maximal chain is built as a set, and none is kept between
    calls."""
    chains = sorted(maximal_chains(a, a.trivial_class[a.tail(p)], p))
    seen = set()  # every face of the earlier facets
    out = []
    for ch in chains:
        fj = frozenset(ch)
        rj = frozenset(v for v in ch if fj - {v} in seen)
        faces = [frozenset()]
        for v in ch:
            faces += [s | {v} for s in faces]
        if any((rj <= s) == (s in seen) for s in faces):
            return None
        seen.update(faces)
        out.append((ch, rj))
    return out


def unshelled_classes(a):
    """The nontrivial classes whose lexicographic order is not a shelling,
    the ones `morse.babson_hersh_matching` hands to greedy coreduction."""
    return [p for p in range(len(a.classes))
            if not a.is_trivial(p) and lex_shelling(a, p) is None]


def reference_partner(a, c):
    """Reference for `realization.partner`, by scanning: the facet of the
    cell c = (e, *G, p) is the first F_j of lex_shelling(a, p), in order,
    whose bit mask (one bit per element of the interval) holds that of G,
    so R_j <= G <= F_j.  The partner is G with t = min(F_j - R_j) toggled,
    or none when R_j = F_j; the arrow cell [e < p] of an arrow's class and
    every cell of a class that its order does not shell stay unmatched."""
    p = c[-1]
    shelling = len(c) > 1 and lex_shelling(a, p)
    if not shelling:
        return None
    bit = {}
    masks = [sum(bit.setdefault(v, 1 << len(bit)) for v in ch)
             for ch in shelling]
    mask = 0
    for v in c[1:-1]:
        mask |= bit[v]
    ch = list(shelling)[next(j for j, m in enumerate(masks)
                             if mask & m == mask)]
    rj = shelling[ch]
    t = min(set(ch) - rj, default=None)
    if t is None:
        return None
    tb = bit[t]
    if not rj and mask in (0, tb) and 1 in a.classes[p].lengths:
        return None
    if mask & tb:
        return ()
    inner = tuple(v for v in ch if bit[v] & (mask | tb))
    return (c[0], *inner, p), inner.index(t) + 1


def reference_bh_pairs_by_sets(a, x):
    """Reference for the pairs `morse.babson_hersh_matching` reads off the
    shellings, from the definition: for each facet F_j with restriction set
    R_j, every face R_j + T + {toggle} matched with R_j + T, the toggle the
    least free element, T any set of the others, each face sandwiched
    between e_{t(p)} and p.  The pair whose bottom is an arrow cell [e < p]
    is left out.  Classes that do not shell give no pairs here; on a
    truncated complex only the pairs whose top x holds are kept.  Pairs are
    of chains."""
    arrows = set(a.arrow_class.values())
    pairs = []
    for p in range(len(a.classes)):
        if a.is_trivial(p):
            continue
        shelling = reference_lex_shelling(a, p)
        if shelling is None:
            continue
        e = a.trivial_class[a.tail(p)]
        for ch, rj in shelling:
            free = sorted(set(ch) - rj)
            if not free:
                continue
            toggle = free[0]
            tsets = [frozenset()]
            for v in free[1:]:
                tsets += [s | {v} for s in tsets]
            for t in tsets:
                top, bottom = [(e,) + tuple(v for v in ch if v in face) + (p,)
                               for face in (rj | t | {toggle}, rj | t)]
                if cell_of(x, top) is not None and not (
                        len(bottom) == 2 and p in arrows):
                    pairs.append((top, bottom))
    return pairs


def reference_bh_pairs(a, x):
    """Reference for the pairs `morse.babson_hersh_matching` lifts from the
    shellings, by selection.  For each facet F_j with restriction set R_j,
    a selection keeps R_j and some free elements (sorted by word, as ids
    are); doubling on the toggle, the least, last puts the bottoms in the
    first half and their tops in the second, and each face is walked from
    the root e_{t(p)} to p with x.child.  With R_j empty the first bottom
    is the empty face, [e < p], which keeps no pair when p is the class of
    an arrow.  On a truncated complex only the pairs whose top x holds are
    kept; classes that do not shell give no pairs here.  Pairs are of
    chains."""
    pairs = []
    for p in range(len(a.classes)):
        shelling = None if a.is_trivial(p) else reference_lex_shelling(a, p)
        if shelling is None:
            continue
        root = x.vertex[a.tail(p)]
        arrow = 1 in a.classes[p].lengths
        for ch, rj in shelling:
            free = sorted((v, i) for i, v in enumerate(ch) if v not in rj)
            if not free:
                continue
            sels = [tuple(v in rj for v in ch)]
            for _, i in free[1:] + free[:1]:
                sels += [s[:i] + (True,) + s[i + 1:] for s in sels]
            half = len(sels) // 2
            skip = arrow and not rj
            for low, high in zip(sels[skip:half], sels[half + skip:]):
                top = x.child(root, *compress(ch, high), p)
                if top is not None:
                    bottom = x.child(root, *compress(ch, low), p)
                    pairs.append((x.chain(top), x.chain(bottom)))
    return pairs


def augment_by_rechecking(a, cells, pairs):
    """Grow a matching of the cells `cells` (chains of dimension >= 1 in
    (dimension, chain) order, of any strata) by rebuilding and fully
    rechecking it for every candidate pair (top, middle facet), in that
    order until none fits.  No arrow cell is matched."""
    arrows = set(a.arrow_class.values())
    pairs = list(pairs)
    matched = {c for pair in pairs for c in pair}
    changed = True
    while changed:
        changed = False
        for top in cells:
            if top in matched or len(top) < 3:
                continue
            for f in faces(a, top)[1:-1]:
                if f in matched or (len(f) == 2 and f[1] in arrows):
                    continue
                if Matching(a, pairs + [(top, f)]).acyclic.ok:
                    pairs.append((top, f))
                    matched.update((top, f))
                    changed = True
                    break
    return Matching(a, pairs)


def reference_coreduction(x, p):
    """Reference for `morse._coreduce`, as it ran on cell ids: greedy
    coreduction on the cells of the CellComplex x of dimension >= 1 that
    end at the class p (but [e < p] of an arrow's class), their middle
    faces read off the face table; when stuck, the least id is set aside.
    Returns the pairs (top, bottom) as chains."""
    cells = [c for cs in x.cells[1:] for c in cs if x.last[c] == p]
    if 1 in x.hpa.classes[p].lengths:
        cells = [c for c in cells if len(x.chain(c)) > 2]
    available, middle, cofaces = set(cells), {}, {}
    for cell in cells:
        middle[cell] = cell_faces(x, cell)[1:-1]
        for f in middle[cell]:
            cofaces.setdefault(f, []).append(cell)
    count = {c: sum(t in available for t in cofaces.get(c, ())) for c in cells}
    queue = deque(sorted((c for c in cells if count[c] == 1), key=x.chain))
    pairs = []

    def remove(cell):
        available.discard(cell)
        for f in middle[cell]:
            if f in count:
                count[f] -= 1
                if count[f] == 1 and f in available:
                    queue.append(f)
    while available:
        while queue:
            s = queue.popleft()
            if s in available and count[s] == 1:
                [t] = [t for t in cofaces[s] if t in available]
                pairs.append((x.chain(t), x.chain(s)))
                remove(s)
                remove(t)
        if available:
            remove(min(available))
    return pairs


def reference_check_acyclic(m):
    """Reference for `morse.check_acyclic`: depth-first search from each
    matched bottom, in order of (key, chain), along the faces f of its top
    (`reference_faces`) with key(f) equal to the bottom's key, where the
    key is the (dimension, tail, head) stratum for an internal matching and
    the dimension otherwise.  Returns the same Report: the first cycle
    closed, as the alternating list bottom, top, ..., bottom."""
    a, top_of = m.hpa, {b: t for t, b in m.pairs}

    def key(c):
        return (len(c), a.tail(c[-1]), a.head(c[-1])) if m.internal.ok \
            else len(c)

    def steps(s):
        return iter([f for f in reference_faces(a, top_of[s])
                     if f != s and f in top_of and key(f) == key(s)])

    color = {}
    for start in sorted(top_of, key=lambda c: (key(c), c)):
        if color.get(start):
            continue
        color[start] = 1
        path = [start]
        stack = [steps(start)]
        while stack:
            for nxt in stack[-1]:
                state = color.get(nxt, 0)
                if state == 1:
                    loop = path[path.index(nxt):]
                    cycle = [c for s in loop for c in (s, top_of[s])] + [nxt]
                    return Report([cycle], len(top_of))
                if state == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append(steps(nxt))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    return Report([], len(top_of))


def forward_sweep(relations):
    """Reference for the class sweep of `HPA`: (classes, step) as that
    sweep ranks them, built source by source in topological order.  From
    each source v, the vertices u after v are visited in topological order;
    every relation group ending at u is walked, word by word, from every
    state at its tail, and the candidate states (s, x) where its words end
    are merged."""
    q = relations.quiver
    groups_at = {}
    for g in relations.groups:
        groups_at.setdefault(g[0].head, []).append(g)
    order = sorted(q.vertices, key=q.topo_rank.__getitem__)
    states, step = [], {}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def walk(c, labels):
        for label in labels:
            c = step[c, label]
        return c

    for i, v in enumerate(order):
        at = {v: [len(states)]}
        states.append((i, (), v, v, frozenset({0})))
        for u in order[i + 1:]:
            parent = {(s, x.label): (s, x.label)
                      for x in q.inc[u] for s in at.get(x.tail, ())}
            for g in groups_at.get(u, ()):
                for s in at.get(g[0].tail, ()):
                    ends = [find((walk(s, w.labels[:-1]), w.labels[-1]))
                            for w in g]
                    for e in ends[1:]:
                        parent[find(e)] = find(ends[0])
            members = {}
            for c in parent:
                members.setdefault(find(c), []).append(c)
            at[u] = []
            for cs in members.values():
                new = len(states)
                at[u].append(new)
                step.update(dict.fromkeys(cs, new))
                rep = min(states[s][1] + (q.arrow_index[x],) for s, x in cs)
                lengths = frozenset(n + 1 for s, _ in cs
                                    for n in states[s][4])
                states.append((i, rep, v, u, lengths))
    ranked = sorted(range(len(states)), key=states.__getitem__)
    cid = {s: k for k, s in enumerate(ranked)}
    classes = []
    for k, s in enumerate(ranked):
        _, rep, v, u, lengths = states[s]
        word = PathWord(v, u, tuple(q.arrows[n].label for n in rep))
        classes.append(PathClass(k, word, v, u, lengths, not rep))
    return classes, {(cid[s], x): cid[t] for (s, x), t in step.items()}


def reference_d_squared(c):
    """Reference for `resolution.verify_d_squared` and the d^2 report of
    `resolution.check_resolution`: every coefficient product goes through
    `mult`, trivial factors included."""
    chain = c.chain
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
                failures.append((chain(cell), {
                    (l, chain(f), r): v for (l, f, r), v in acc.items()}))
    return Report(failures, checked)


def reference_homotopy_check(a, c):
    """Reference for the homotopy report of `resolution.check_resolution`:
    d h + h d (d h + h_{-1} m in degree 0) evaluated afresh on every basis
    triple."""
    chain = c.complex.chain
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
                ac, cell, bc = triple
                failures.append(((ac, chain(cell), bc), {
                    (l, chain(f), r): v for (l, f, r), v in lhs.items()}))
    for cls in range(len(a.classes)):
        checked += 1
        out = multiply_augmentation(c, h_minus_one(c, {cls: 1}))
        if out != {cls: 1}:
            failures.append((('algebra', cls), out))
    return Report(failures, checked)


def bimodule_chain_complex(c):
    """The underlying chain complex of free k-modules with basis all triples
    (a, cell, b), as (cells, boundary) for `linalg.homology`; used for
    augmentation/exactness rank checks."""
    a = c.hpa

    def boundary(triple):
        ac, cell, bc = triple
        return [(sign, (a.mult(ac, l), face, a.mult(r, bc)))
                for sign, l, face, r in c.terms(cell)]
    return [list(basis(c, k)) for k in range(c.top + 1)], boundary


def el_every_subinterval(a, p, ranks):
    """Reference for `invariants.el_shellable`, checked on every closed
    subinterval [u, w] of [e_{t(p)}, p] directly: exactly one weakly
    increasing maximal chain, and it is lexicographically least.  A cover
    is ranked (`ranks`, keyed by arrow label) by the least arrow label of
    its class."""
    e = a.trivial_class[a.tail(p)]
    elems = [e] + sorted(open_interval(a, p)) + [p]
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
            chains = [(u,) + ch + (w,) for ch in maximal_chains(a, u, w)]
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


# the rank-3 interval [0, 1] whose open part is the two disjoint 2-chains
# a1 < b1 and a2 < b2: disconnected, so not Cohen-Macaulay and no shelling
SPLIT_INTERVAL = ({'0': 0, 'a1': 1, 'a2': 1, 'b1': 2, 'b2': 2, '1': 3},
                  [('0', 'a1'), ('0', 'a2'), ('a1', 'b1'), ('a2', 'b2'),
                   ('b1', '1'), ('b2', '1')])


@st.composite
def split_interval_algebras(draw):
    """The incidence algebra, built by poset_dsl, of a graded poset that
    holds SPLIT_INTERVAL, with up to five more elements c0, c1, ... at
    ranks 0 to 4, each covering a random nonempty set of the elements one
    rank below it (none at rank 0).  No element is added below 1, so the
    open interval (0, 1) stays the two 2-chains; intervals that hold 1
    and a c above it do not shell either."""
    rank, covers = dict(SPLIT_INTERVAL[0]), list(SPLIT_INTERVAL[1])
    for i in range(draw(st.integers(0, 5))):
        r, name = draw(st.integers(0, 4)), f'c{i}'
        lower = sorted(x for x, rx in rank.items() if rx == r - 1)
        if lower:
            covers += [(x, name) for x in draw(st.lists(
                st.sampled_from(lower), min_size=1, unique=True))]
        rank[name] = r
    elements = sorted(rank, key=lambda x: (rank[x], x))
    return HPA(parse_quiver(poset_dsl(elements, covers))[1])


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


@pytest.fixture(scope='session')
def p11112():
    return load_algebra('p11112.quiver', BENCHMARK_INPUTS)


@pytest.fixture(scope='session')
def ungraded():
    return HPA(parse_quiver(UNGRADED)[1])
