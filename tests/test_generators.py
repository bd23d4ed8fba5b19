import pytest

from recolouring import (
    Graph,
    chromatic_number,
    contains_induced,
    find_k_colouring,
    generate_gk,
    generate_named,
    is_co_chordal,
    is_compact_bruteforce,
    is_proper,
    is_weakly_chordal,
    random_cochordal,
    random_graph,
    search_h,
)
from recolouring.explorer import is_frozen

import oracles
from conftest import brute_isomorphic


def test_g3_shape(g3_bundle):
    g = g3_bundle.graph
    assert g.n == 10
    assert g.edge_count() == 22
    assert g.labels[0] == "x" and g.labels[1] == "y"
    assert g.labels[2] == "u1" and g.labels[6] == "w1" and g.labels[8] == "z1"
    # the two asymmetric hub edges
    assert g.has_edge(0, 8) and g.has_edge(1, 6)
    assert not g.has_edge(0, 6) and not g.has_edge(1, 8)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_gk_invariants(k):
    bundle = generate_gk(k)
    g = bundle.graph
    assert g.n == 4 * (k - 1) + 2
    # 4 cliques + two hubs over 2(k-1) vertices + 2(k-1) hub-to-w/z
    # attachments per side + the two extra edges
    expected_m = 4 * (k - 1) * (k - 2) // 2 + 4 * (k - 1) + 4 * (k - 1) + 2
    assert g.edge_count() == expected_m
    assert is_weakly_chordal(g)
    assert chromatic_number(g) == k
    assert is_proper(g, bundle.base_colouring)
    assert bundle.base_colouring.k == k


def test_g3_frozen_colouring(g3_bundle):
    frozen = g3_bundle.frozen_colouring
    assert frozen.k == 4
    assert is_proper(g3_bundle.graph, frozen)
    assert is_frozen(g3_bundle.graph, frozen)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_gk_frozen_formula_is_the_first_frozen_colouring(k):
    bundle = generate_gk(k)
    search = oracles.find_frozen_colourings(bundle.graph, k + 1)
    assert search.exhausted
    assert bundle.frozen_colouring == search.colourings[0]


def test_gk_base_formula_is_the_searched_colouring():
    for k in range(3, 41):
        bundle = generate_gk(k)
        assert bundle.base_colouring.assignment == find_k_colouring(bundle.graph, k)


def test_gk_rejects_small_k():
    with pytest.raises(ValueError):
        generate_gk(2)


def test_named_parametric_shapes():
    assert generate_named("path", 1).n == 1
    c = generate_named("cycle", 6)
    assert c.n == 6 and c.edge_count() == 6
    k5 = generate_named("complete", 5)
    assert k5.edge_count() == 10
    b = generate_named("complete_bipartite_minus_matching", 3)
    assert b.n == 6 and b.edge_count() == 6
    assert all(len(list(b.neighbours(v))) == 2 for v in range(6))


def test_named_fixed_shapes():
    assert generate_named("diamond").edge_count() == 5
    assert brute_isomorphic(
        generate_named("p5_complement"),
        Graph(5, [(0, 2), (0, 3), (1, 3), (1, 4), (0, 4), (2, 4)]),
    )
    assert generate_named("2k2").edges() == [(0, 1), (2, 3)]
    assert contains_induced(generate_named("c5"), "c5") is not None


def test_named_argument_validation():
    with pytest.raises(ValueError):
        generate_named("path")
    with pytest.raises(ValueError):
        generate_named("diamond", 4)
    with pytest.raises(ValueError):
        generate_named("blancmange")
    with pytest.raises(ValueError):
        generate_named("cycle", 2)


def test_random_graph_is_deterministic():
    a = random_graph(12, 0.4, seed=99)
    b = random_graph(12, 0.4, seed=99)
    assert a == b
    assert a != random_graph(12, 0.4, seed=100)
    assert random_graph(8, 0.0, seed=1).edge_count() == 0
    assert random_graph(8, 1.0, seed=1).edge_count() == 28
    with pytest.raises(ValueError):
        random_graph(5, 1.5, seed=0)


@pytest.mark.parametrize("seed", range(12))
def test_random_cochordal_samples(seed):
    g = random_cochordal(9, seed)
    assert g.n == 9
    assert is_co_chordal(g)
    assert is_weakly_chordal(g)


def test_random_cochordal_is_deterministic():
    assert random_cochordal(10, 3) == random_cochordal(10, 3)


def test_search_h_exhausts_five_vertices_without_witness():
    # no 5-vertex graph is 4-chromatic without containing K5... actually K5
    # itself is compact, so the sweep must come back empty
    report = search_h(5, budget_seconds=120.0, seed=0, stop_after=None)
    assert report.exhausted
    assert report.candidates == []
    assert report.graphs_examined == 1 << 10


def test_search_h_finds_witness_on_eight_vertices():
    report = search_h(8, budget_seconds=120.0, seed=0)
    assert len(report.candidates) == 1
    g = report.graphs[0]
    hit = report.candidates[0]
    assert g.n == 8 and hit["n"] == 8
    # independently recheck the full property transcript
    assert chromatic_number(g) == 4
    assert find_k_colouring(g, 3) is None
    for pat in ("p5", "p5_complement", "c5"):
        assert contains_induced(g, pat) is None
    assert is_weakly_chordal(g)
    assert not is_compact_bruteforce(g).compact


def test_search_h_rejects_large_n():
    with pytest.raises(ValueError):
        search_h(10, budget_seconds=1.0, seed=0)
