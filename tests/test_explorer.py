import itertools
import tracemalloc

import pytest
from hypothesis import given, settings

from recolouring import (
    CapacityError,
    Colouring,
    Graph,
    build_reconfiguration_graph,
    decode,
    enumerate_colourings,
    generate_named,
    is_frozen,
    is_proper,
    summarize,
)

from conftest import all_labelled_graphs, small_graphs
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


def edge_list_is_proper(g, c):
    """The edge-list definition: one colour in range per vertex, and two
    colours on every edge of g.edges()."""
    a = c.assignment
    if len(a) != g.n or any(not 0 <= x < c.k for x in a):
        return False
    return all(a[u] != a[v] for u, v in g.edges())


@pytest.mark.parametrize("n", range(5))
def test_is_proper_matches_edge_list_reference(n):
    for g in all_labelled_graphs(n):
        for k in range(4):
            # colours -1 and k are out of range
            for a in itertools.product(range(-1, k + 1), repeat=n):
                c = Colouring(a, k)
                assert is_proper(g, c) == edge_list_is_proper(g, c), (g.edges(), a, k)
            for length in (n - 1, n + 1):
                if length >= 0:
                    assert not is_proper(g, Colouring((0,) * length, max(k, 1)))


def test_enumeration_counts():
    assert len(enumerate_colourings(generate_named("complete", 3), 3)) == 6
    assert len(enumerate_colourings(generate_named("path", 4), 3)) == 24
    assert len(enumerate_colourings(generate_named("cycle", 5), 2)) == 0


def test_enumeration_is_sorted_and_proper():
    g = generate_named("cycle", 4)
    codes = enumerate_colourings(g, 3)
    cols = [decode(code, g.n, 3) for code in codes]
    assert all(is_proper(g, Colouring(a, 3)) for a in cols)
    assert codes == sorted(codes) and cols == sorted(cols)
    assert len(set(cols)) == len(cols)


def test_enumeration_capacity_error():
    with pytest.raises(CapacityError):
        enumerate_colourings(Graph(6), 4, cap=10)


def test_enumeration_memory_does_not_grow_with_the_palette():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="more than 100 proper"):
            enumerate_colourings(Graph(1), 3_000_000, cap=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_enumeration_of_a_long_path():
    cols = enumerate_colourings(generate_named("path", 1500), 2)
    assert [decode(code, 1500, 2)[:3] for code in cols] == [(0, 1, 0), (1, 0, 1)]


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
                if r.assignment(i)[v] != r.assignment(j)[v]
            ]
            assert len(diff) == 1
            assert i in r.adjacency[j]


@pytest.mark.parametrize("name,n,k", [("cycle", 8, 4), ("path", 12, 3)])
def test_reconfig_rows_share_one_int_per_node(name, n, k):
    # every row holding node j holds the index's one int object for j, so
    # the rows add no int objects beyond one per node
    r = build_reconfiguration_graph(generate_named(name, n), k)
    assert len({id(x) for row in r.adjacency for x in row}) <= r.node_count()


def test_reconfig_rows_never_take_a_borrowed_code():
    # with no edges every assignment is proper, so R_4 is the Hamming graph
    # on 3 digits, and a drop past a zero digit would land on another node:
    # 16 - 1 is the code of (0, 3, 3), two digits away from (1, 0, 0)
    r = build_reconfiguration_graph(Graph(3), 4)
    assert r.node_count() == 64 and len(r.components) == 1
    for i, row in enumerate(r.adjacency):
        assert len(row) == 9
        for j in row:
            a, b = r.assignment(i), r.assignment(j)
            assert sum(x != y for x, y in zip(a, b)) == 1
    assert r.assignment(16) == (1, 0, 0) and r.assignment(15) == (0, 3, 3)
    assert 15 not in r.adjacency[16]


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
    for code in enumerate_colourings(g, k):
        assert not is_frozen(g, Colouring(decode(code, g.n, k), k))


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
    for i in range(r.node_count()):
        assert is_frozen(g, Colouring(r.assignment(i), k)) == (i in frozen)
    search = find_frozen_colourings(g, k, budget_seconds=30)
    assert search.exhausted
    frozen_assignments = {r.assignment(i) for i in frozen}
    assert {c.assignment for c in search.colourings} == frozen_assignments
