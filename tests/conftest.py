import pathlib

import pytest
from hypothesis import strategies as st

from hpa.algebra import HPA, RelationSet, free_algebra
from hpa.dsl import parse_quiver
from hpa.quiver import Quiver, enumerate_paths, linear_quiver

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


@st.composite
def algebras(draw, with_relations=False):
    """Random acyclic quivers (up to 5 vertices, declared in a shuffled
    order, and 7 arrows) with random relation groups, so some algebras are
    not cancellative and some are not graded.  With with_relations, the
    first arrow is doubled, so parallel paths exist, and at least one
    relation group is drawn."""
    n = draw(st.integers(2 if with_relations else 1, 5))
    vertices = [f"v{i}" for i in range(n)]
    edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] < e[1]) if n > 1 else st.nothing()
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
