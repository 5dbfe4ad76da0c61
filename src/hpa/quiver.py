"""Finite acyclic quivers and their path words."""

from collections import namedtuple, deque


Arrow = namedtuple('Arrow', ['label', 'tail', 'head'])

# A path word: tail vertex, head vertex, and the tuple of arrow labels read
# left to right in concatenation order (so (a, b) means "a then b").
PathWord = namedtuple('PathWord', ['tail', 'head', 'labels'])


class QuiverError(ValueError):
    pass


class CycleError(QuiverError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"quiver has an oriented cycle: {' -> '.join(self.cycle)}")


def trivial_word(v):
    return PathWord(v, v, ())


class Quiver:
    """Vertices (unique names), arrows (unique labels), no oriented cycles."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex names")
        vset = set(self.vertices)
        self.arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise QuiverError(f"duplicate arrow labels: {dup}")
        for a in self.arrows:
            if a.tail not in vset or a.head not in vset:
                raise QuiverError(f"arrow {a.label}: unknown vertex "
                                  f"{a.tail if a.tail not in vset else a.head}")
        self.arrow_index = {a.label: i for i, a in enumerate(self.arrows)}
        self.arrow_by_label = {a.label: a for a in self.arrows}
        self.out = {v: [] for v in self.vertices}
        self.inc = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.out[a.tail].append(a)
            self.inc[a.head].append(a)
        self.topo_rank = self._toposort()

    def _toposort(self):
        indeg = {v: len(self.inc[v]) for v in self.vertices}
        # stable Kahn: among sources, keep declaration order
        queue = deque(v for v in self.vertices if indeg[v] == 0)
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for a in self.out[v]:
                indeg[a.head] -= 1
                if indeg[a.head] == 0:
                    queue.append(a.head)
        if len(order) != len(self.vertices):
            raise CycleError(self._find_cycle())
        return {v: i for i, v in enumerate(order)}

    def _find_cycle(self):
        """The first oriented cycle that depth-first search meets, from each
        vertex in declaration order along its arrows in declaration order,
        as its vertices with the first one repeated at the end; [] if none.
        The search keeps its own stack, so a long path cannot exhaust the
        interpreter's."""
        color = {}  # 1 on the current path, 2 done
        for v in self.vertices:
            if v in color:
                continue
            color[v] = 1
            path, stack = [v], [iter(self.out[v])]
            while stack:
                for a in stack[-1]:
                    w = a.head
                    if color.get(w) == 1:
                        return path[path.index(w):] + [w]
                    if w not in color:
                        color[w] = 1
                        path.append(w)
                        stack.append(iter(self.out[w]))
                        break
                else:
                    color[path.pop()] = 2
                    stack.pop()
        return []

    def word(self, tail, labels):
        """Build a PathWord from a tail and label sequence, validating
        composability."""
        v = tail
        if v not in self.topo_rank:
            raise QuiverError(f"unknown vertex {v!r}")
        for l in labels:
            a = self.arrow_by_label.get(l)
            if a is None:
                raise QuiverError(f"unknown arrow label {l!r}")
            if a.tail != v:
                raise QuiverError(
                    f"word not composable: {l!r} starts at {a.tail!r}, "
                    f"expected {v!r}")
            v = a.head
        return PathWord(tail, v, tuple(labels))

    def word_from_labels(self, labels):
        """Like word() but the tail is inferred from the first label."""
        if not labels:
            raise QuiverError("empty word has no inferable tail")
        first = self.arrow_by_label.get(labels[0])
        if first is None:
            raise QuiverError(f"unknown arrow label {labels[0]!r}")
        return self.word(first.tail, labels)


def enumerate_paths(q):
    """All path words of an acyclic quiver, including one trivial word per
    vertex, ordered by tail in topological order and then by label sequence,
    arrows compared by declaration index (so downstream grouping is
    reproducible): a preorder walk from the tails in topological order
    along the arrows in declaration order lists each word once, right after
    its prefix less the last arrow, and lists them in that order with no
    sort."""
    words = []
    for v in sorted(q.vertices, key=q.topo_rank.__getitem__):
        stack = [trivial_word(v)]
        while stack:
            w = stack.pop()
            words.append(w)
            for a in reversed(q.out[w.head]):
                stack.append(PathWord(w.tail, a.head, w.labels + (a.label,)))
    return words
