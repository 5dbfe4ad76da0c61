"""Toric homotopy path algebras from integer weight data.

A weight datum presents a character map mu: Z^(n+k) -> G^ = Z^r (+) sum
Z/m_j.  Line bundles on the quotient are indexed by degrees (elements of
G^); morphisms are monomials, so the endomorphism algebra of a finite
collection of degrees is a quiver with monomial congruence relations.  The
half-open zonotope mu([0,1)^(n+k)) cuts out the canonical finite collection.
"""

import heapq
import itertools
import operator

from .quiver import Quiver
from .algebra import HPA, RelationSet, require_cancellative
from .quiver import enumerate_paths


class Degree(tuple):
    """(free part, torsion residues), both tuples; compares and sorts as a
    plain pair."""

    def __new__(cls, free, tors=()):
        return super().__new__(cls, (tuple(free), tuple(tors)))

    @property
    def free(self):
        return self[0]

    @property
    def tors(self):
        return self[1]

    def __repr__(self):
        return f"Degree({self.free}, {self.tors})"


def _ints(values, what):
    """values as a list of ints; floats, bools and strings are refused."""
    if not isinstance(values, (list, tuple)) or \
            any(type(x) is not int for x in values):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return list(values)


class WeightData:
    """free: r x (n+k) integer matrix; torsion: list of (modulus, row).
    The answers of the exact LPs asked about the datum are kept with it
    (see `_lp`)."""

    def __init__(self, free, torsion=(), ncols=None):
        self.free = [_ints(row, 'a weight row') for row in free]
        self.torsion = [(_ints([m], 'a torsion modulus')[0],
                         _ints(row, 'a torsion row')) for m, row in torsion]
        widths = [len(r) for r in self.free] + \
                 [len(r) for _, r in self.torsion]
        if ncols is None:
            if not widths:
                raise ValueError("cannot infer the number of variables")
            ncols = widths[0]
        if any(wd != ncols for wd in widths):
            raise ValueError("rows of unequal width")
        if ncols < 1:
            raise ValueError("need at least one variable")
        for m, _ in self.torsion:
            if m < 2:
                raise ValueError(f"torsion modulus {m} < 2")
        self.ncols = ncols
        self.r = len(self.free)
        self._lp_answers = {}

    def degree(self, free=(), tors=None):
        free = _ints(free, 'a degree')
        tors = [0] * len(self.torsion) if tors is None else \
            _ints(tors, 'torsion residues')
        if len(free) != self.r or len(tors) != len(self.torsion):
            raise ValueError("degree shape mismatch")
        tors = [t % m for t, (m, _) in zip(tors, self.torsion)]
        return Degree(free, tors)

    def mu(self, m):
        """Degree of a monomial exponent vector."""
        free = [sum(row[j] * m[j] for j in range(self.ncols))
                for row in self.free]
        tors = [sum(row[j] * m[j] for j in range(self.ncols)) % mod
                for mod, row in self.torsion]
        return Degree(free, tors)

    def add(self, d, e):
        return Degree([a + b for a, b in zip(d.free, e.free)],
                      [(a + b) % m for (a, b), (m, _)
                       in zip(zip(d.tors, e.tors), self.torsion)])

    def sub(self, d, e):
        return Degree([a - b for a, b in zip(d.free, e.free)],
                      [(a - b) % m for (a, b), (m, _)
                       in zip(zip(d.tors, e.tors), self.torsion)])

    def to_json(self):
        return {'free': [list(r) for r in self.free],
                'torsion': [{'mod': m, 'row': list(r)}
                            for m, r in self.torsion],
                'ncols': self.ncols}


def weight_data_from_json(data):
    """Parse {"free": [[...]], "torsion": [{"mod": m, "row": [...]}]} plus
    optional "ncols" and "degrees"; returns (WeightData, degrees or None)."""
    if not isinstance(data, dict):
        raise ValueError("weight data must be a JSON object")
    for key in ('free', 'torsion', 'degrees'):
        if not isinstance(data.get(key, []), list):
            raise ValueError(f"'{key}' must be a JSON list, got {data[key]!r}")
    ncols = data.get('ncols')
    if ncols is not None and type(ncols) is not int:
        raise ValueError(f"'ncols' must be an integer, got {ncols!r}")
    torsion = []
    for t in data.get('torsion', []):
        if not isinstance(t, dict) or 'mod' not in t or 'row' not in t:
            raise ValueError(f"a torsion entry needs 'mod' and 'row': {t!r}")
        torsion.append((t['mod'], t['row']))
    w = WeightData(data.get('free', []), torsion, ncols=ncols)
    degs = None
    if 'degrees' in data:
        degs = []
        for item in data['degrees']:
            if isinstance(item, dict):
                degs.append(w.degree(item.get('free', []),
                                     item.get('torsion', None)))
            else:
                degs.append(w.degree(item))
    return w, degs


def monomial_str(m):
    parts = []
    for j, e in enumerate(m):
        if e == 1:
            parts.append(f"x{j + 1}")
        elif e > 1:
            parts.append(f"x{j + 1}^{e}")
    return '*'.join(parts) if parts else '1'


def lp_maximize(c, A, b):
    """Return (status, value, x, den) for max c.x s.t. A x = b, x >= 0.

    status is 'optimal', 'infeasible' or 'unbounded'.  On 'optimal' the
    optimum is value/den and each x_j is x[j]/den, with value, x and den
    Python ints and den > 0; otherwise the three are None.  A two-phase
    tableau simplex with Bland's rule, run fraction-free (Edmonds 1967,
    Bareiss 1968): the tableau holds integers over one common denominator
    den, the determinant of the basis up to sign, and a pivot on p sets
    every entry a outside the pivot row to (a*p - f*b) / den, an exact
    division, before den becomes |p|.  Ratios are compared by
    cross-multiplication, so it takes the pivots of the same simplex on
    rationals and reaches the same optimum, exactly; the problems here are
    tiny (feasibility questions in at most a dozen variables).
    """
    m = len(A)
    n = len(c)
    # tableau columns: n real vars + m artificials | rhs; rows with b < 0
    # negated
    T = []
    for i in range(m):
        s = -1 if b[i] < 0 else 1
        T.append([s * v for v in A[i]] + [0] * m + [s * b[i]])
        T[i][n + i] = 1
    basis = [n + i for i in range(m)]
    den = 1

    def pivot(row, col):
        nonlocal den
        pr = T[row]
        p = pr[col]
        for i in range(m):
            if i != row:
                f = T[i][col]
                T[i] = [(a * p - f * bv) // den for a, bv in zip(T[i], pr)]
        basis[row] = col
        den = p
        if p < 0:  # keep den > 0, so an entry has the sign of its value
            T[:] = [[-v for v in r] for r in T]
            den = -p

    def run(obj, ncols):
        # obj: coefficient per column (maximize); returns False if unbounded
        while True:
            # reduced costs, times den: den c_j - sum over the basis
            lam = [(obj[basis[i]], T[i]) for i in range(m) if obj[basis[i]]]
            entering = None
            for j in range(ncols):
                if j in basis:
                    continue
                if obj[j] * den > sum(l * r[j] for l, r in lam):
                    entering = j
                    break  # Bland: first improving index
            if entering is None:
                return True
            leaving = None
            for i in range(m):
                a = T[i][entering]
                if a > 0:
                    # rhs_i / a < rhs_l / f, ties to the least basic index
                    if leaving is None or \
                            (T[i][-1] * f, basis[i]) < (T[leaving][-1] * a,
                                                        basis[leaving]):
                        leaving, f = i, a
            if leaving is None:
                return False
            pivot(leaving, entering)

    # phase 1: maximize -(sum of artificials)
    run([0] * n + [-1] * m, n + m)
    if any(T[i][-1] for i in range(m) if basis[i] >= n):
        return 'infeasible', None, None, None
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if T[i][j]:
                    pivot(i, j)
                    break
    # rows still basic in an artificial are all-zero constraints; keep them,
    # the artificial columns are fixed at 0 by never letting them re-enter
    if not run(list(c) + [-1] * m, n):  # artificials never improve
        return 'unbounded', None, None, None
    x = [0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return 'optimal', value, x, den


def _column_echelon(M):
    """Column echelon form E = M V by unimodular column operations.  Returns
    the columns of E with those of V stacked below (nrows + ncols entries
    each) and the pivot rows: column t < rank is zero above pivots[t] and
    nonzero there, the pivot rows increase, and the columns from the rank on
    are zero in E (Cohen, A Course in Computational Algebraic Number Theory,
    1993, section 2.4)."""
    nrows, ncols = len(M), len(M[0]) if M else 0
    cols = [[row[j] for row in M] + [int(i == j) for i in range(ncols)]
            for j in range(ncols)]
    pivots = []
    for i in range(nrows):
        t = len(pivots)
        live = [j for j in range(t, ncols) if cols[j][i]]
        while live:
            # the entry of least |value| becomes the pivot; reducing the
            # others by it leaves remainders below it, the next candidates
            p = min(live, key=lambda j: abs(cols[j][i]))
            cols[t], cols[p] = cols[p], cols[t]
            for j in range(t + 1, ncols):
                q = cols[j][i] // cols[t][i]
                if q:
                    cols[j] = [u - q * v for u, v in zip(cols[j], cols[t])]
            live = [j for j in range(t + 1, ncols) if cols[j][i]]
        if t < ncols and cols[t][i]:
            pivots.append(i)
    return cols, pivots


def solve_integer(M, b):
    """One integer solution x of M x = b, or None.  M dense, b a list.
    Forward substitution on the pivot rows of M V = E gives y with E y = b
    and x = V y."""
    nrows = len(M)
    cols, pivots = _column_echelon(M)
    rest = list(b) + [0] * len(cols)  # b - E y, with -V y below
    for col, i in zip(cols, pivots):
        q, r = divmod(rest[i], col[i])
        if r:
            return None
        rest = [u - q * v for u, v in zip(rest, col)]
    if any(rest[:nrows]):
        return None
    return [-v for v in rest[nrows:]]


def integer_kernel_basis(M):
    """Basis (list of vectors) of {x in Z^ncols : M x = 0}: the columns of V
    past the rank, which V being unimodular makes a basis of the whole
    lattice."""
    cols, pivots = _column_echelon(M)
    return [col[len(M):] for col in cols[len(pivots):]]


def _lp(w, c, rows, rhs):
    """(status, value, den) of max c.x s.t. rows x = rhs, x >= 0, the
    optimum being value/den, solved once per question on w: the answer is
    kept on w keyed by the whole question, so no changed row or right-hand
    side can read a stale one."""
    key = (tuple(c), tuple(map(tuple, rows)), tuple(rhs))
    answer = w._lp_answers.get(key)
    if answer is None:
        status, value, _, den = lp_maximize(c, rows, rhs)
        answer = w._lp_answers[key] = status, value, den
    return answer


def _feasible(w, rows, rhs):
    """Is {x >= 0 : rows x = rhs} nonempty?  (through `_lp`)"""
    ncols = len(rows[0]) if rows else 0
    return _lp(w, [0] * ncols, rows, rhs)[0] == 'optimal'


def check_cohomologically_proper(w):
    """True iff a = 0 is the only nonnegative solution of mu_free a = 0,
    i.e. the normalized system mu a = 0, sum a = 1, a >= 0 is infeasible."""
    rows = [list(row) for row in w.free] + [[1] * w.ncols]
    rhs = [0] * w.r + [1]
    return not _feasible(w, rows, rhs)


def _strictly_realizable(w, gfree):
    """Is there b in [0,1)^(n+k) with mu_free(b) = gfree?  Maximize the
    margin t with b_j + t + slack_j = 1; strict means optimum > 0."""
    n = w.ncols
    nv = n + 1 + n  # b, t, slacks
    rows = [list(row) + [0] * (1 + n) for row in w.free] + [
        [int(i in (j, n, n + 1 + j)) for i in range(nv)] for j in range(n)]
    rhs = list(gfree) + [1] * n
    c = [0] * nv
    c[n] = 1
    status, value, _ = _lp(w, c, rows, rhs)
    return status == 'optimal' and value > 0


def _torsion_values(w, c0):
    """All torsion vectors mu_tors(c) over integer solutions c = c0 + ker."""
    tau0 = tuple(sum(row[j] * c0[j] for j in range(w.ncols)) % mod
                 for mod, row in w.torsion)
    if not w.torsion:
        return {()}
    gens = [tuple(sum(row[j] * k[j] for j in range(w.ncols)) % mod
                  for mod, row in w.torsion)
            for k in integer_kernel_basis(w.free)]
    seen = {tau0}
    frontier = [tau0]
    moduli = [m for m, _ in w.torsion]
    while frontier:
        t = frontier.pop()
        for g in gens:
            nt = tuple((a + b) % m for a, b, m in zip(t, g, moduli))
            if nt not in seen:
                seen.add(nt)
                frontier.append(nt)
    return seen


def image_phi(w):
    """Degrees hit by the half-open zonotope: free parts from exact strict
    feasibility over the rationals, torsion parts saturated along the kernel
    lattice of an integer preimage."""
    if not check_cohomologically_proper(w):
        raise ValueError("weight data is not cohomologically proper")
    ranges = [range(sum(min(0, v) for v in row),
                    sum(max(0, v) for v in row) + 1) for row in w.free]
    out = set()
    for gfree in itertools.product(*ranges):
        if not _strictly_realizable(w, gfree):
            continue
        c0 = solve_integer(w.free, list(gfree)) if w.r else [0] * w.ncols
        if c0 is None:
            continue
        for tau in _torsion_values(w, c0):
            out.add(Degree(gfree, tau))
    return out


def hom_monomials(w, d, e):
    """All exponent vectors m >= 0 with mu(m) = e - d.

    The set depends on the difference e - d alone, and `build_toric_hpa`
    asks once per difference.  Each coordinate is capped by an exact LP and
    the enumeration prunes on LP feasibility of the remaining columns; all
    these LPs go through `_lp`, so each question is solved once per weight
    datum."""
    g = w.sub(e, d)
    caps = []
    for j in range(w.ncols):
        c = [0] * w.ncols
        c[j] = 1
        status, value, den = _lp(w, c, w.free, g.free)
        if status == 'infeasible':
            return set()
        if status == 'unbounded':
            raise ValueError("infinite hom space: weight data not proper")
        caps.append(value // den)

    out = set()
    m = [0] * w.ncols

    def rec(j, rem):
        if j == w.ncols:
            if all(v == 0 for v in rem) and w.mu(m).tors == g.tors:
                out.add(tuple(m))
            return
        if not _feasible(w, [row[j:] for row in w.free], rem):
            return
        for e_j in range(caps[j] + 1):
            m[j] = e_j
            nxt = [rem[i] - w.free[i][j] * e_j for i in range(w.r)]
            rec(j + 1, nxt)
        m[j] = 0

    rec(0, list(g.free))
    return out


def degree_name(d):
    name = 'd(' + ','.join(str(v) for v in d.free)
    if d.tors:
        name += ';' + ','.join(str(v) for v in d.tors)
    return name + ')'


def _proper_subvectors(m):
    """Nonzero proper componentwise sub-vectors of m."""
    axes = [range(v + 1) for v in m]
    for cand in itertools.product(*axes):
        if any(cand) and cand != m:
            yield cand


def build_toric_hpa(w, degrees):
    """Quiver with monomial relations of End((+) L_d over the degree list.

    Arrows are the monomials indecomposable relative to the list: a monomial
    from d to e is dropped exactly when a proper piece of it lands on
    another listed degree.  The congruence is 'same endpoints, same
    monomial'; the union-find closure is checked to agree with that, and
    both cancellation axioms are checked afterwards (ValueError otherwise).
    An empty degree list is refused.
    """
    if not degrees:
        raise ValueError("degrees must not be empty")
    degrees = [d if isinstance(d, Degree) else w.degree(d) for d in degrees]
    if len(set(degrees)) != len(degrees):
        raise ValueError("degrees must be distinct")
    names = {d: degree_name(d) for d in degrees}
    degset = set(degrees)

    homs = {}
    by_difference = {}
    for d in degrees:
        for e in degrees:
            if d != e:
                g = w.sub(e, d)
                if g not in by_difference:
                    by_difference[g] = hom_monomials(w, d, e)
                homs[d, e] = by_difference[g]

    arrow_list = []  # (tail degree, head degree, monomial)
    for (d, e), ms in sorted(homs.items(),
                             key=lambda kv: (kv[0][0], kv[0][1])):
        for m in sorted(ms):
            decomposable = False
            for m1 in _proper_subvectors(m):
                f = w.add(d, w.mu(m1))
                if f in degset and f != d and f != e:
                    decomposable = True
                    break
            if not decomposable:
                arrow_list.append((d, e, m))

    base_count = {}
    for _, _, m in arrow_list:
        base_count[monomial_str(m)] = base_count.get(monomial_str(m), 0) + 1
    arrows = []
    label_monomial = {}
    for d, e, m in arrow_list:
        base = monomial_str(m)
        label = base if base_count[base] == 1 else f"{base}@{names[d]}"
        arrows.append((label, names[d], names[e]))
        label_monomial[label] = m

    q = Quiver([names[d] for d in degrees], arrows)

    # all paths with their total monomials; same-monomial words are congruent.
    # The walk lists each word right after its prefix less the last arrow,
    # so total[k] holds the monomial of the last word of length k, and a
    # word of length k adds its last arrow's to total[k - 1].  Each word
    # keeps the index of its key (tail, head, monomial) in `index`
    words = [word for word in enumerate_paths(q) if word.labels]
    index = {}
    by_monomial = []
    key_of = []
    total = [(0,) * w.ncols]
    for word in words:
        k = len(word.labels)
        del total[k:]
        total.append(tuple(map(operator.add, total[k - 1],
                               label_monomial[word.labels[-1]])))
        i = index.setdefault((word.tail, word.head, total[k]), len(index))
        if i == len(by_monomial):
            by_monomial.append([])
        by_monomial[i].append(word)
        key_of.append(i)
    groups = [ws for ws in by_monomial if len(ws) > 1]
    a = HPA(RelationSet(q, groups))

    # the congruence must be exactly 'same endpoints and same monomial'; the
    # class of each word is read off its prefix's class the same way
    class_of_key = [None] * len(index)
    cls = [None]
    for word, i in zip(words, key_of):
        k = len(word.labels)
        del cls[k:]
        if k == 1:
            cls[0] = a.trivial_class[word.tail]
        cls.append(a.step[cls[k - 1], word.labels[-1]])
        if class_of_key[i] is None:
            class_of_key[i] = cls[k]
        elif class_of_key[i] != cls[k]:
            raise ValueError(f"monomial class split: {list(index)[i]}")
    if len(set(class_of_key)) != len(class_of_key):
        raise ValueError("distinct monomials merged by the congruence")
    require_cancellative(a)

    a.toric_weights = w
    a.toric_monomials = label_monomial
    return a


def bondal_ruan_hpa(w):
    """Toric HPA on the full half-open-zonotope degree collection; all its
    arrows are single variables (checked)."""
    degrees = sorted(image_phi(w))
    a = build_toric_hpa(w, degrees)
    for label, m in a.toric_monomials.items():
        if sum(m) != 1:
            raise ValueError(f"arrow {label} is not a linear monomial on the "
                             "canonical collection")
    return a


def check_directable(a):
    """The lexicographically least variable order under which every
    composite x_i x_j of two arrows with x_j before x_i also exists swapped,
    as x_j x_i with the same ends, as variable names; None when there is
    none.  A composite x_i x_j without that swap puts x_i before x_j, and
    the order is the topological sort of these constraints that always
    takes the least variable available.  Only an algebra built from weight
    data carries the monomials of its arrows; any other raises
    ValueError."""
    monomials = getattr(a, 'toric_monomials', None)
    if monomials is None:
        raise ValueError("directability needs an algebra built from weight "
                         "data")
    var_of = {}
    for label, m in monomials.items():
        if sum(m) != 1:
            raise ValueError(f"arrows not variable-labeled: {label}")
        var_of[label] = m.index(1)
    nvars = a.toric_weights.ncols

    head_of = {(ar.tail, var_of[ar.label]): ar.head for ar in a.quiver.arrows}
    after = [set() for _ in range(nvars)]  # the variables each must precede
    for a1 in a.quiver.arrows:
        i = var_of[a1.label]
        for a2 in a.quiver.out.get(a1.head, []):
            j = var_of[a2.label]
            if i != j and \
                    head_of.get((head_of.get((a1.tail, j)), i)) != a2.head:
                after[i].add(j)
    before = [0] * nvars
    for j in itertools.chain.from_iterable(after):
        before[j] += 1
    ready = [v for v in range(nvars) if not before[v]]
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(f"x{v + 1}")
        for j in after[v]:
            before[j] -= 1
            if not before[j]:
                heapq.heappush(ready, j)
    return order if len(order) == nvars else None
