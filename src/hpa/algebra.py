"""Path congruences on acyclic quivers and the homotopy-path-algebra axioms.

An algebra here is kQ/I where I is generated by differences p - p' of path
words listed in relation groups.  We only ever manipulate the induced
congruence, and only through its classes: `HPA` builds them in one sweep
over the sources as the states of a path automaton, so multiplication and
the class of a word are walks along its transitions, never scans of words.
Coefficients never leave {0, +-1, q-classes}.
"""

from collections import namedtuple

from .quiver import Arrow, PathWord, Quiver


class RelationError(ValueError):
    def __init__(self, message, group):
        super().__init__(message)
        self.group = group  # index of the offending relation group


class RelationSet:
    """Groups of path words to be identified.  Each group shares endpoints;
    groups with the same endpoints are pairwise disjoint as word sets.  Each
    word is walked once, and must compose and end at its declared head."""

    def __init__(self, quiver, groups):
        self.quiver = quiver
        norm = []
        for i, g in enumerate(groups):
            g = tuple(g)
            if len(g) < 2:
                raise RelationError("relation group needs at least two words", i)
            t, h = g[0].tail, g[0].head
            for w in g:
                if not isinstance(w, PathWord):
                    raise RelationError(f"not a path word: {w!r}", i)
                if (w.tail, w.head) != (t, h):
                    raise RelationError(
                        f"relation endpoints mismatch: {_fmt(g[0])} vs {_fmt(w)}",
                        i)
                if quiver.word(t, w.labels).head != h:
                    raise RelationError(
                        f"word {_fmt(w)} does not end at {h!r}", i)
            if len(set(g)) != len(g):
                raise RelationError(
                    f"repeated word in relation group {_fmt(g[0])}", i)
            norm.append(g)
        seen = {}
        for i, g in enumerate(norm):
            words = seen.setdefault((g[0].tail, g[0].head), set())
            for w in g:
                if w in words:
                    raise RelationError(
                        f"word {_fmt(w)} appears in two relation groups", i)
                words.add(w)
        self.groups = tuple(norm)

    def __len__(self):
        return len(self.groups)


def _fmt(w):
    return ' '.join(w.labels) if w.labels else f"e_{w.tail}"


PathClass = namedtuple('PathClass', ['id', 'rep', 'tail', 'head', 'lengths',
                                     'is_trivial'])


class HPA:
    """A quiver modulo the path congruence that its relation groups generate.

    The classes are the states of a deterministic path automaton: one state
    per class and one transition per arrow leaving its head, so the class of
    a word is read by walking its labels from the trivial class at its tail
    (`step[c, label]` is the class of c followed by the arrow).  Classes are
    indexed 0..n-1 sorted by their canonical representative, the least word
    of the class: words are ordered by tail, in topological order, and then
    by label sequence, arrows compared by declaration index, the order in
    which `enumerate_paths` lists them.
    """

    def __init__(self, relations):
        """Build the classes in one sweep over the sources v, in reverse
        topological order.  From v, the vertices u a path reaches, listed from
        the heads of v's arrows (already swept), are visited in topological
        order: the relation groups ending at u merge the pairs (s, x) of a
        finished state s and an arrow x from head(s) to u.  No arrow leads
        back, so every merge at u is final.  A group from t is walked once,
        while t is the source, and kept as its distinct ends (c, x), c the
        class of a word less its last arrow x; with one end it merges nothing.
        A later source walks each state s at t along rep(c) only: states at
        finished vertices are congruence classes, so s rep(c) reaches the state
        of s w[:-1].  A state is (rank of its tail, least word as arrow
        indices, tail, head, word lengths); two words of one class are never
        prefixes of each other, so the least rep(s) + (x,) over the merged
        candidates is the least word.
        """
        q = self.quiver = relations.quiver
        self.relations = relations
        groups_from = {}
        for g in relations.groups:
            groups_from.setdefault((g[0].tail, g[0].head), []).append(g)
        order = sorted(q.vertices, key=q.topo_rank.__getitem__)
        states, self.step = [], {}
        ends_at = {}  # u -> [(t, distinct ends (rep(c) labels, x))]
        reach = {}  # v -> the vertices after v that a path reaches

        def find(c):
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        for i in reversed(range(len(order))):
            v = order[i]
            at = {v: [len(states)]}   # the states from v, by head
            states.append((i, (), v, v, frozenset({0})))
            reach[v] = sorted({u for x in q.out[v]
                               for u in (x.head, *reach[x.head])},
                              key=q.topo_rank.__getitem__)
            for u in reach[v]:
                parent = {(s, x.label): (s, x.label)
                          for x in q.inc[u] for s in at.get(x.tail, ())}
                for g in groups_from.get((v, u), ()):
                    ends = dict.fromkeys((self._walk(at[v][0], w.labels[:-1]),
                                          w.labels[-1]) for w in g)
                    if len(ends) > 1:
                        ends_at.setdefault(u, []).append((v, [
                            (tuple(q.arrows[n].label for n in states[c][1]), x)
                            for c, x in ends]))
                for t, ends in ends_at.get(u, ()):
                    for s in at.get(t, ()):
                        e, *es = [find((self._walk(s, p), x)) for p, x in ends]
                        for f in es:
                            parent[find(f)] = find(e)
                members = {}
                for c in parent:
                    members.setdefault(find(c), []).append(c)
                at[u] = []
                for cs in members.values():
                    new = len(states)
                    at[u].append(new)
                    self.step.update(dict.fromkeys(cs, new))
                    rep = min(states[s][1] + (q.arrow_index[x],)
                              for s, x in cs)
                    lengths = frozenset(n + 1 for s, _ in cs
                                        for n in states[s][4])
                    states.append((i, rep, v, u, lengths))
        ranked = sorted(range(len(states)), key=states.__getitem__)
        cid = {s: k for k, s in enumerate(ranked)}
        self.step = {(cid[s], x): cid[t] for (s, x), t in self.step.items()}
        self.classes = []
        for k, s in enumerate(ranked):
            _, rep, v, u, lengths = states[s]
            word = PathWord(v, u, tuple(q.arrows[n].label for n in rep))
            self.classes.append(PathClass(k, word, v, u, lengths, not rep))
        self.graded = all(len(c.lengths) == 1 for c in self.classes)
        self.trivial_class = {c.tail: c.id for c in self.classes if c.is_trivial}
        self.arrow_class = {x.label: self.step[self.trivial_class[x.tail],
                                                x.label] for x in q.arrows}
        self.classes_by_tail = {v: [] for v in q.vertices}
        self.classes_by_head = {v: [] for v in q.vertices}
        for c in self.classes:
            self.classes_by_tail[c.tail].append(c.id)
            self.classes_by_head[c.head].append(c.id)
        self._mult = {}
        self._quot = {}
        self._covers = {}
        self._spheres = {}  # realization.spheres, by class
        self._least = None  # realization._Least, made on first use
        self._cancellation = None  # require_cancellative's check_hpa report

    # -- basic queries ------------------------------------------------------

    def cls(self, cid):
        return self.classes[cid]

    def tail(self, cid):
        return self.classes[cid].tail

    def head(self, cid):
        return self.classes[cid].head

    def is_trivial(self, cid):
        return self.classes[cid].is_trivial

    def length(self, cid):
        """Length of a class; for graded algebras this is well defined.
        Returns the minimum word length otherwise."""
        return min(self.classes[cid].lengths)

    def mult(self, c1, c2):
        """Class of the concatenation; classes must be composable."""
        key = (c1, c2)
        r = self._mult.get(key)
        if r is None:
            a, b = self.classes[c1], self.classes[c2]
            if a.head != b.tail:
                raise ValueError(
                    f"classes not composable: head {a.head!r} != tail {b.tail!r}")
            r = self._walk(c1, b.rep.labels)
            self._mult[key] = r
        return r

    def word_class(self, w):
        """Class of a path word."""
        return self._walk(self.trivial_class[w.tail], w.labels)

    def _walk(self, c, labels):
        for label in labels:
            c = self.step[c, label]
        return c

    # -- left divisibility: p <= q iff q = p.r for some class r ---------------

    def quotients(self, p):
        """Row {p.r: r} of the right-quotient table, over every class r that
        starts where p ends.  The quotient r is unique when the algebra is
        cancellative; rows are built on first use and shared by all callers."""
        row = self._quot.get(p)
        if row is None:
            row = {}
            for r in self.classes_by_tail[self.head(p)]:
                row.setdefault(self.mult(p, r), r)
            self._quot[p] = row
        return row

    def divide(self, p, q):
        """The class r with p.r = q; raises ValueError('not a subpath') if p
        does not left-divide q."""
        r = self.quotients(p).get(q)
        if r is None:
            raise ValueError("not a subpath")
        return r

    def leq(self, p, q):
        return q in self.quotients(p)

    def covers(self, p):
        """Upper covers of p, sorted: the minimal classes among p.x over the
        arrows x leaving head(p).  In a cancellative algebra every q > p lies
        above some p.x; minimality matters when the algebra is not graded
        (with x = s t, p.x lies above p.s).  Cached like the quotient rows."""
        row = self._covers.get(p)
        if row is None:
            ups = {self.mult(p, self.arrow_class[ar.label])
                   for ar in self.quiver.out[self.head(p)]}
            row = sorted(c for c in ups
                         if not any(d != c and self.leq(d, c) for d in ups))
            self._covers[p] = row
        return row


def from_document(text):
    """Parse a DSL document and build its algebra; convenience wrapper."""
    from .dsl import parse_quiver
    return HPA(parse_quiver(text)[1])


# -- HPA axiom check --------------------------------------------------------

class Report:
    """Outcome of a check: `witnesses` lists what failed (empty when `ok`)
    and `checked` counts the items examined."""

    def __init__(self, witnesses, checked):
        self.witnesses = witnesses
        self.checked = checked
        self.ok = not witnesses

    def __bool__(self):
        return self.ok


def accumulate(acc, key, v):
    """acc[key] += v on a sparse dict, dropping the entry when it cancels."""
    nv = acc.get(key, 0) + v
    if nv:
        acc[key] = nv
    else:
        acc.pop(key, None)


class Violation(namedtuple('Violation', ['side', 'r', 'p', 'p2'])):
    """r p ~ r p' (side 'left') or p r ~ p' r (side 'right') with p, p' not
    congruent; r is an arrow word, p and p' class representatives."""

    def __str__(self):
        return (f"{self.side} cancellation fails for r={_fmt(self.r)} with "
                f"p={_fmt(self.p)}, p'={_fmt(self.p2)}")

    def to_json(self):
        return {'side': self.side, 'r': list(self.r.labels),
                'r_tail': self.r.tail, 'p': list(self.p.labels),
                'p2': list(self.p2.labels), 'p_tail': self.p.tail}


def cancellation_summary(rep):
    """One line on a check_hpa report: the verdict and the first violation."""
    if rep.ok:
        return "cancellative: passes both axioms"
    return f"{len(rep.witnesses)} violation(s); first: {rep.witnesses[0]}"


class NotCancellativeError(ValueError):
    """The algebra fails a cancellation axiom."""


def require_cancellative(a):
    """Return a, or raise NotCancellativeError with the first violation.
    Quotients of classes, and so every construction built on division, are
    only unique in a cancellative algebra.  The check_hpa report is kept on
    the algebra, so each algebra is checked once."""
    rep = a._cancellation
    if rep is None:
        rep = a._cancellation = check_hpa(a)
    if not rep.ok:
        raise NotCancellativeError(
            f"not a homotopy path algebra: {cancellation_summary(rep)}")
    return a


def check_hpa(a):
    """Left/right cancellativity of the congruence: rp ~ rp' must imply
    p ~ p', and pr ~ p'r must imply p ~ p'.  Cancelling a path r cancels
    its arrows one at a time, so it suffices that multiplication by each
    arrow class, on either side, is injective on classes."""
    violations = []
    checked = 0
    for ar in a.quiver.arrows:
        r = PathWord(ar.tail, ar.head, (ar.label,))
        x = a.arrow_class[ar.label]
        for side, cs, times in (
                ('left', a.classes_by_tail[ar.head], lambda c: a.mult(x, c)),
                ('right', a.classes_by_head[ar.tail], lambda c: a.mult(c, x))):
            preimages = {}
            checked += len(cs)
            for c in cs:
                same = preimages.setdefault(times(c), [])
                for c0 in same:
                    violations.append(
                        Violation(side, r, a.cls(c0).rep, a.cls(c).rep))
                same.append(c)
    return Report(violations, checked)


# -- tensor product ----------------------------------------------------------


def _uniquify(names):
    """Make names unique by appending primes, preserving order."""
    seen = {}
    out = []
    for n in names:
        m = n
        while m in seen:
            m = m + "'"
        seen[m] = True
        out.append(m)
    return out


def tensor(a, b):
    """Tensor product algebra: product quiver, both relation sets lifted, and
    one commuting-square group per arrow pair."""
    qa, qb = a.quiver, b.quiver
    vname = {}
    names = _uniquify([f"{v}|{w}" for v in qa.vertices for w in qb.vertices])
    i = 0
    for v in qa.vertices:
        for w in qb.vertices:
            vname[v, w] = names[i]
            i += 1

    aname = {}
    raw = [f"{ar.label}|{w}" for ar in qa.arrows for w in qb.vertices] + \
          [f"{v}|{br.label}" for v in qa.vertices for br in qb.arrows]
    raw = _uniquify(raw)
    arrows = []
    i = 0
    for ar in qa.arrows:
        for w in qb.vertices:
            aname['L', ar.label, w] = raw[i]
            arrows.append(Arrow(raw[i], vname[ar.tail, w], vname[ar.head, w]))
            i += 1
    for v in qa.vertices:
        for br in qb.arrows:
            aname['R', v, br.label] = raw[i]
            arrows.append(Arrow(raw[i], vname[v, br.tail], vname[v, br.head]))
            i += 1
    q = Quiver(list(vname.values()), arrows)

    def lift_a(word, w):
        labels = tuple(aname['L', l, w] for l in word.labels)
        return PathWord(vname[word.tail, w], vname[word.head, w], labels)

    def lift_b(v, word):
        labels = tuple(aname['R', v, l] for l in word.labels)
        return PathWord(vname[v, word.tail], vname[v, word.head], labels)

    groups = []
    for g in a.relations.groups:
        for w in qb.vertices:
            groups.append([lift_a(word, w) for word in g])
    for g in b.relations.groups:
        for v in qa.vertices:
            groups.append([lift_b(v, word) for word in g])
    for ar in qa.arrows:
        for br in qb.arrows:
            w1 = PathWord(vname[ar.tail, br.tail], vname[ar.head, br.head],
                          (aname['L', ar.label, br.tail],
                           aname['R', ar.head, br.label]))
            w2 = PathWord(vname[ar.tail, br.tail], vname[ar.head, br.head],
                          (aname['R', ar.tail, br.label],
                           aname['L', ar.label, br.head]))
            groups.append([w1, w2])

    return HPA(RelationSet(q, groups))
