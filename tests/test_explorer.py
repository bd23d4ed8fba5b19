import pytest
from hypothesis import given, settings

from recolouring import (
    CapacityError,
    Colouring,
    Graph,
    build_reconfiguration_graph,
    enumerate_colourings,
    generate_named,
    is_frozen,
    is_proper,
    summarize,
)

from conftest import small_graphs
from oracles import find_frozen_colourings


def chromatic_poly_path(n, k):
    return k * (k - 1) ** (n - 1) if n >= 1 else 1


def chromatic_poly_cycle(n, k):
    return (k - 1) ** n + (-1) ** n * (k - 1)


def chromatic_poly_complete(n, k):
    out = 1
    for i in range(n):
        out *= k - i
    return max(out, 0)


def test_enumeration_counts():
    assert len(enumerate_colourings(generate_named("complete", 3), 3)) == 6
    assert len(enumerate_colourings(generate_named("path", 4), 3)) == 24
    assert len(enumerate_colourings(generate_named("cycle", 5), 2)) == 0


def test_enumeration_is_sorted_and_proper():
    g = generate_named("cycle", 4)
    cols = enumerate_colourings(g, 3)
    assert all(is_proper(g, c) for c in cols)
    assigns = [c.assignment for c in cols]
    assert assigns == sorted(assigns)
    assert len(set(assigns)) == len(assigns)


def test_enumeration_capacity_error():
    with pytest.raises(CapacityError):
        enumerate_colourings(Graph(6), 4, cap=10)


def test_enumeration_of_a_long_path():
    cols = enumerate_colourings(generate_named("path", 1500), 2)
    assert [c.assignment[:3] for c in cols] == [(0, 1, 0), (1, 0, 1)]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", range(0, 6))
def test_counts_match_chromatic_polynomials(n, k):
    assert len(enumerate_colourings(generate_named("path", n), k)) == (
        chromatic_poly_path(n, k)
    )
    assert len(enumerate_colourings(generate_named("complete", n), k)) == (
        chromatic_poly_complete(n, k)
    )
    if n >= 3:
        assert len(enumerate_colourings(generate_named("cycle", n), k)) == (
            chromatic_poly_cycle(n, k)
        )


def test_reconfig_graph_of_k1():
    r = build_reconfiguration_graph(Graph(1), 3)
    assert r.node_count() == 3
    assert all(len(row) == 2 for row in r.adjacency)
    s = summarize(r)
    assert s.component_count == 1 and s.diameter == 1


def test_reconfig_graph_of_k2_with_two_colours():
    r = build_reconfiguration_graph(generate_named("complete", 2), 2)
    s = summarize(r)
    assert r.node_count() == 2
    assert s.component_count == 2
    assert s.component_diameters == [0, 0]
    assert s.frozen_colouring_indices == [0, 1]


def test_reconfig_edges_are_single_switches():
    g = generate_named("cycle", 4)
    r = build_reconfiguration_graph(g, 3)
    for i, row in enumerate(r.adjacency):
        for j in row:
            diff = [
                v
                for v in range(g.n)
                if r.nodes[i].assignment[v] != r.nodes[j].assignment[v]
            ]
            assert len(diff) == 1
            assert i in r.adjacency[j]


def test_r4_of_k3_fixture():
    # frozen fixture: first run recorded connected with diameter 4
    r = build_reconfiguration_graph(generate_named("complete", 3), 4)
    s = summarize(r)
    assert s.colouring_count == 24
    assert s.component_count == 1
    assert s.diameter == 4


def test_summary_diameter_cap():
    r = build_reconfiguration_graph(generate_named("path", 3), 3)
    s = summarize(r, diameter_cap=2)
    assert s.component_diameters == [None]
    assert s.diameter_capped == [True]


def test_is_frozen_basics():
    k2 = generate_named("complete", 2)
    assert is_frozen(k2, Colouring((0, 1), 2))
    assert not is_frozen(k2, Colouring((0, 1), 3))
    with pytest.raises(ValueError):
        is_frozen(k2, Colouring((0, 0), 2))


def test_large_palette_never_frozen():
    g = generate_named("cycle", 4)
    k = 4  # max degree + 2
    for c in enumerate_colourings(g, k):
        assert not is_frozen(g, c)


def test_frozen_search_on_g3(g3_bundle):
    g = g3_bundle.graph
    res = find_frozen_colourings(g, 4, budget_seconds=60)
    assert res.exhausted
    assert res.colourings
    assert all(is_frozen(g, c) for c in res.colourings)
    assert g3_bundle.frozen_colouring is not None


def test_frozen_search_on_bipartite_minus_matching():
    g = generate_named("complete_bipartite_minus_matching", 3)
    res = find_frozen_colourings(g, 3, budget_seconds=60)
    assert res.exhausted and res.colourings


def test_trees_have_no_frozen_3_colourings():
    trees = [
        generate_named("path", n) for n in range(2, 7)
    ] + [Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])]
    for t in trees:
        res = find_frozen_colourings(t, 3, budget_seconds=60)
        assert res.exhausted and res.colourings == []
        # cross-check against the full reconfiguration graph
        r = build_reconfiguration_graph(t, 3)
        assert summarize(r).frozen_colouring_indices == []


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=5))
def test_frozen_iff_isolated(g):
    k = 3
    r = build_reconfiguration_graph(g, k)
    frozen = set(summarize(r).frozen_colouring_indices)
    for i, c in enumerate(r.nodes):
        assert is_frozen(g, c) == (i in frozen)
    search = find_frozen_colourings(g, k, budget_seconds=30)
    assert search.exhausted
    assert {c.assignment for c in search.colourings} == {
        r.nodes[i].assignment for i in frozen
    }
