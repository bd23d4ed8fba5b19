import itertools

import pytest
from hypothesis import given, settings

from recolouring import (
    Graph,
    complement,
    generate_named,
    induced_subgraph,
    is_anticonnected,
    is_clique,
    is_complete,
)
from recolouring.graph import component_mask

import oracles
from conftest import all_labelled_graphs, brute_isomorphic, small_graphs
from oracles import has_long_chordless_path


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_empty_graph_is_complete():
    assert is_complete(Graph(0))


def test_complement_of_k3_is_empty():
    k3 = generate_named("complete", 3)
    assert complement(k3).edge_count() == 0


def test_complement_involution_on_c5():
    c5 = generate_named("cycle", 5)
    assert complement(complement(c5)) == c5


@pytest.mark.parametrize("n", range(7))
def test_complement_matches_pair_loop_reference(n):
    # the row masks must give the pair loop's edges and keep its labels
    labels = {v: f"v{v}" for v in range(0, n, 2)}
    for h in all_labelled_graphs(n):
        g = Graph(n, h.edges(), labels=labels)
        got, want = complement(g), oracles.complement(g)
        assert (got.n, got.adj, got.labels) == (want.n, want.adj, want.labels)
        assert got.labels == labels


def test_c5_self_complementary():
    c5 = generate_named("cycle", 5)
    assert brute_isomorphic(complement(c5), c5)


def test_induced_subgraph_identity():
    c5 = generate_named("cycle", 5)
    sub, mapping = induced_subgraph(c5, range(5))
    assert sub == c5
    assert mapping == {i: i for i in range(5)}


def test_induced_subgraph_of_cycle_is_path():
    c5 = generate_named("cycle", 5)
    sub, _ = induced_subgraph(c5, [0, 1, 2, 3])
    assert brute_isomorphic(sub, generate_named("path", 4))


def test_induced_subgraph_rejects_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(Graph(3), [0, 5])


@given(small_graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_induced_subgraph_matches_pairwise_edges(g):
    g = Graph(g.n, g.edges(), labels={v: f"l{v}" for v in range(0, g.n, 2)})
    for keep in (range(0, g.n, 2), range(1, g.n), [v for v in range(g.n) if v % 3]):
        sub, mapping = induced_subgraph(g, keep)
        assert list(mapping) == list(keep)
        pairs = itertools.combinations(keep, 2)
        want = Graph(len(keep), [(mapping[u], mapping[v]) for u, v in pairs if g.has_edge(u, v)])
        assert sub.adj == want.adj
        assert sub.labels == {mapping[v]: g.labels[v] for v in keep if v in g.labels}


def test_components_of_disjoint_cliques():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert [component_mask(g, v) for v in range(5)] == [0b00111] * 3 + [0b11000] * 2
    # removed vertices are neither crossed nor reported
    assert component_mask(g, 0, removed=0b00010) == 0b00101
    assert component_mask(g, 3, removed=0b10000) == 0b01000


def test_components_of_edgeless_graph():
    assert [component_mask(Graph(3), v) for v in range(3)] == [0b001, 0b010, 0b100]


def test_is_clique():
    c4 = generate_named("cycle", 4)
    assert is_clique(c4, [0, 1])
    assert not is_clique(c4, [0, 1, 2])
    assert is_clique(c4, [])
    assert is_clique(c4, [3])


def test_is_anticonnected():
    c4 = generate_named("cycle", 4)
    assert is_anticonnected(c4, [0])
    assert not is_anticonnected(Graph(2, [(0, 1)]), [0, 1])
    # complement of C4 is 2K2, disconnected
    assert not is_anticonnected(c4, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        is_anticonnected(c4, [])


def test_is_anticonnected_matches_the_induced_copy():
    # the definition: the complement of the induced copy is connected
    for n in range(1, 6):
        for g in all_labelled_graphs(n):
            for active in range(1, 1 << n):
                s = [v for v in range(n) if (active >> v) & 1]
                co = complement(induced_subgraph(g, s)[0])
                expected = component_mask(co, 0) == co.full_mask
                assert is_anticonnected(g, s) == expected, (g, s)


def test_long_chordless_path():
    p4 = generate_named("path", 4)
    assert has_long_chordless_path(p4, 0, 3)
    c4 = generate_named("cycle", 4)
    assert not has_long_chordless_path(c4, 0, 2)
    with pytest.raises(ValueError):
        has_long_chordless_path(p4, 0, 1)  # adjacent
    with pytest.raises(ValueError):
        has_long_chordless_path(p4, 2, 2)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


@settings(max_examples=100, deadline=None)
@given(small_graphs(max_n=7))
def test_edge_count_splits_between_graph_and_complement(g):
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), min(size, g.n)):
            a, _ = induced_subgraph(g, subset)
            b, _ = induced_subgraph(complement(g), subset)
            s = len(subset)
            assert a.edge_count() + b.edge_count() == s * (s - 1) // 2
            break  # one subset per size keeps the example cheap


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_components_partition_vertices(g):
    comps = [component_mask(g, v) for v in range(g.n)]
    for v, comp in enumerate(comps):
        assert (comp >> v) & 1 and not comp & ~g.full_mask
        # every member has the same component, so two components meet only
        # when they are equal: the masks partition the vertices
        assert all(comps[u] == comp for u in range(g.n) if (comp >> u) & 1)
    for u, v in g.edges():
        assert comps[u] == comps[v]
