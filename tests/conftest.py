import itertools

import pytest
from hypothesis import strategies as st

from recolouring import Graph


def all_labelled_graphs(n):
    """Yield every labelled simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def brute_isomorphic(g, h):
    """Exhaustive isomorphism test for tiny graphs."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u, v in itertools.combinations(range(g.n), 2)
        ):
            return True
    return False


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    return Graph(n, edges)


@pytest.fixture(scope="session")
def g3_bundle():
    from recolouring import generate_gk

    return generate_gk(3)
