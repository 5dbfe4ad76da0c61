"""Toric homotopy path algebras from integer weight data.

A weight datum presents a character map mu: Z^(n+k) -> G^ = Z^r (+) sum
Z/m_j.  Line bundles on the quotient are indexed by degrees (elements of
G^); morphisms are monomials, so the endomorphism algebra of a finite
collection of degrees is a quiver with monomial congruence relations.  The
half-open zonotope mu([0,1)^(n+k)) cuts out the canonical finite collection.
"""

import itertools
from collections import namedtuple

from .linalg import lp_maximize, lp_feasible, solve_integer, integer_kernel_basis
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
    """free: r x (n+k) integer matrix; torsion: list of (modulus, row)."""

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


def check_cohomologically_proper(w):
    """True iff a = 0 is the only nonnegative solution of mu_free a = 0,
    i.e. the normalized system mu a = 0, sum a = 1, a >= 0 is infeasible."""
    rows = [list(row) for row in w.free] + [[1] * w.ncols]
    rhs = [0] * w.r + [1]
    feasible, _ = lp_feasible(rows, rhs)
    return not feasible


def _strictly_realizable(w, gfree):
    """Is there b in [0,1)^(n+k) with mu_free(b) = gfree?  Maximize the
    margin t with b_j + t + slack_j = 1; strict means optimum > 0."""
    n = w.ncols
    nv = n + 1 + n  # b, t, slacks
    rows = []
    rhs = []
    for row, g in zip(w.free, gfree):
        rows.append(list(row) + [0] * (1 + n))
        rhs.append(g)
    for j in range(n):
        r = [0] * nv
        r[j] = 1
        r[n] = 1
        r[n + 1 + j] = 1
        rows.append(r)
        rhs.append(1)
    c = [0] * nv
    c[n] = 1
    status, value, _ = lp_maximize(c, rows, rhs)
    return status == 'optimal' and value > 0


def _torsion_values(w, c0):
    """All torsion vectors mu_tors(c) over integer solutions c = c0 + ker."""
    tau0 = tuple(sum(row[j] * c0[j] for j in range(w.ncols)) % mod
                 for mod, row in w.torsion)
    if not w.torsion:
        return {()}
    gens = []
    for k in integer_kernel_basis(w.free):
        gens.append(tuple(sum(row[j] * k[j] for j in range(w.ncols)) % mod
                          for mod, row in w.torsion))
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
    ranges = []
    for row in w.free:
        lo = sum(min(0, v) for v in row)
        hi = sum(max(0, v) for v in row)
        ranges.append(range(lo, hi + 1))
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
    """All exponent vectors m >= 0 with mu(m) = e - d."""
    g = w.sub(e, d)
    caps = []
    for j in range(w.ncols):
        c = [0] * w.ncols
        c[j] = 1
        status, value, _ = lp_maximize(c, [list(r) for r in w.free],
                                       list(g.free))
        if status == 'infeasible':
            return set()
        if status == 'unbounded':
            raise ValueError("infinite hom space: weight data not proper")
        caps.append(int(value))

    out = set()
    m = [0] * w.ncols

    def rest_feasible(j, rem):
        cols = range(j, w.ncols)
        rows = [[row[t] for t in cols] for row in w.free]
        ok, _ = lp_feasible(rows, rem)
        return ok

    def rec(j, rem):
        if j == w.ncols:
            if all(v == 0 for v in rem) and w.mu(m).tors == g.tors:
                out.add(tuple(m))
            return
        if not rest_feasible(j, rem):
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
    for d in degrees:
        for e in degrees:
            if d != e:
                homs[d, e] = hom_monomials(w, d, e)

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

    # all paths with their total monomials; same-monomial words are congruent
    by_monomial = {}
    for word in enumerate_paths(q):
        if not word.labels:
            continue
        total = [0] * w.ncols
        for lab in word.labels:
            mono = label_monomial[lab]
            total = [a + b for a, b in zip(total, mono)]
        by_monomial.setdefault((word.tail, word.head, tuple(total)),
                               []).append(word)
    groups = [ws for ws in by_monomial.values() if len(ws) > 1]
    a = HPA(RelationSet(q, groups))

    # the congruence must be exactly 'same endpoints and same monomial'
    class_of_key = {}
    for key, ws in by_monomial.items():
        ids = {a.word_class(word) for word in ws}
        if len(ids) != 1:
            raise ValueError(f"monomial class split: {key}")
        class_of_key[key] = ids.pop()
    if len(set(class_of_key.values())) != len(class_of_key):
        raise ValueError("distinct monomials merged by the congruence")
    require_cancellative(a)

    a.toric_weights = w
    a.toric_degrees = degrees
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


# variable counts up to which check_directable tries every order
EXHAUSTIVE_VARIABLES = 8

Directability = namedtuple('Directability', ['order', 'exhaustive'])


def check_directable(a):
    """Search for a variable order under which every out-of-order length-2
    composition also exists with its variables sorted (same endpoints, same
    monomial).  Exhaustive over all orders for at most EXHAUSTIVE_VARIABLES
    variables; beyond that only a few heuristic orders are tried and the
    result says so.  Only an algebra built from weight data carries the
    monomials of its arrows; any other raises ValueError."""
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

    head_of = {}
    for ar in a.quiver.arrows:
        head_of[ar.tail, var_of[ar.label]] = ar.head
    comps = []
    for a1 in a.quiver.arrows:
        for a2 in a.quiver.out.get(a1.head, []):
            comps.append((var_of[a1.label], var_of[a2.label],
                          a1.tail, a2.head))

    def works(perm):
        pos = {v: i for i, v in enumerate(perm)}
        for i, j, tail, head in comps:
            if pos[i] > pos[j]:
                mid = head_of.get((tail, j))
                if mid is None or head_of.get((mid, i)) != head:
                    return False
        return True

    if nvars <= EXHAUSTIVE_VARIABLES:
        for perm in itertools.permutations(range(nvars)):
            if works(perm):
                return Directability([f"x{v + 1}" for v in perm], True)
        return Directability(None, True)

    candidates = [tuple(range(nvars)), tuple(reversed(range(nvars)))]
    for perm in candidates:
        if works(perm):
            return Directability([f"x{v + 1}" for v in perm], False)
    return Directability(None, False)
