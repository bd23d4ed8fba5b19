import itertools

import pytest
from hypothesis import given, settings

from recolouring import (
    Graph,
    chromatic_number,
    complement,
    contains_induced,
    find_antihole,
    find_hole,
    find_k_colouring,
    find_two_pairs,
    generate_gk,
    generate_named,
    is_co_chordal,
    is_compact_bruteforce,
    is_weakly_chordal,
    qualifying_two_pair,
    two_pair_via_anticonnected_set,
)
from recolouring.graph import bits, induced_subgraph

import oracles
from conftest import all_labelled_graphs, small_graphs
from oracles import has_long_chordless_path


def pair_oracle(g):
    """2-pairs via exhaustive chordless-path enumeration."""
    out = set()
    for x, y in itertools.combinations(range(g.n), 2):
        if not g.has_edge(x, y) and not has_long_chordless_path(g, x, y):
            out.add((x, y))
    return out


def test_two_pairs_of_c4():
    c4 = generate_named("cycle", 4)
    assert {(p.x, p.y) for p in find_two_pairs(c4)} == {(0, 2), (1, 3)}
    assert pair_oracle(c4) == {(0, 2), (1, 3)}


def test_two_pairs_of_complete_graph_empty():
    assert find_two_pairs(generate_named("complete", 5)) == []


def test_two_pair_fields():
    c4 = generate_named("cycle", 4)
    p = find_two_pairs(c4)[0]
    assert (p.x, p.y) == (0, 2)
    assert p.separator == frozenset({1, 3})
    assert p.component_of_x == frozenset({0})
    assert p.component_of_y == frozenset({2})


@settings(max_examples=120, deadline=None)
@given(small_graphs(max_n=7))
def test_separator_criterion_matches_path_oracle(g):
    assert {(p.x, p.y) for p in find_two_pairs(g)} == pair_oracle(g)


def test_two_pairs_on_active_mask_match_the_induced_copy():
    # every non-empty mask of every labelled graph on at most 5 vertices
    for n in range(1, 6):
        for g in all_labelled_graphs(n):
            for active in range(1, 1 << n):
                sub, mapping = induced_subgraph(g, bits(active))
                host = sorted(mapping)  # new id -> old id
                expected = [
                    (
                        host[p.x],
                        host[p.y],
                        {host[v] for v in p.separator},
                        {host[v] for v in p.component_of_x},
                        {host[v] for v in p.component_of_y},
                    )
                    for p in find_two_pairs(sub)
                ]
                got = [
                    (p.x, p.y, p.separator, p.component_of_x, p.component_of_y)
                    for p in find_two_pairs(g, active)
                ]
                assert got == expected, (g, active)


def test_hole_detection():
    c5 = generate_named("cycle", 5)
    witness = find_hole(c5)
    assert witness is not None and sorted(witness.cycle) == [0, 1, 2, 3, 4]
    assert find_hole(generate_named("cycle", 4)) is None
    c7 = generate_named("cycle", 7)
    assert find_hole(c7) is not None and len(find_hole(c7).cycle) == 7


def test_hole_witness_induces_cycle():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6)])
    w = find_hole(g)
    assert w is not None
    cyc = list(w.cycle)
    m = len(cyc)
    for i, j in itertools.combinations(range(m), 2):
        expected = abs(i - j) in (1, m - 1)
        assert g.has_edge(cyc[i], cyc[j]) == expected


def test_antihole_detection():
    c6bar = complement(generate_named("cycle", 6))
    w = find_antihole(c6bar)
    assert w is not None and w.kind == "antihole" and len(w.cycle) == 6
    # C5 is self-complementary
    assert find_antihole(generate_named("cycle", 5)) is not None


def test_weakly_chordal_basics(g3_bundle):
    assert is_weakly_chordal(g3_bundle.graph)
    assert not is_weakly_chordal(generate_named("cycle", 5))
    tree = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert is_weakly_chordal(tree)


def test_g3_has_no_hole_or_antihole(g3_bundle):
    assert find_hole(g3_bundle.graph) is None
    assert find_antihole(g3_bundle.graph) is None


def test_long_path_is_weakly_chordal():
    # the hole and antihole searches run on an explicit stack
    assert is_weakly_chordal(generate_named("path", 1500))


def test_g3_two_pairs_include_hub_and_clique_pairs(g3_bundle):
    # labels: x=0, y=1, u1=2, v1=4
    pairs = {(p.x, p.y) for p in find_two_pairs(g3_bundle.graph)}
    assert (0, 1) in pairs
    assert (2, 4) in pairs


def test_co_chordal():
    assert is_co_chordal(generate_named("complete", 4))
    assert not is_co_chordal(generate_named("2k2"))
    assert is_co_chordal(generate_named("path", 4))
    assert not is_co_chordal(generate_named("cycle", 6))


def test_contains_induced():
    c6 = generate_named("cycle", 6)
    hit = contains_induced(c6, "p5")
    assert hit is not None
    sub, _ = induced_subgraph(c6, hit)
    assert sub.edge_count() == 4
    assert contains_induced(generate_named("cycle", 5), "c5") == frozenset(range(5))
    with pytest.raises(ValueError):
        contains_induced(c6, "nonsense")


def test_diamond_pattern_in_g3(g3_bundle):
    # the closed neighbourhood of u2 = {u2, u1, x, y} induces a diamond
    sub, _ = induced_subgraph(g3_bundle.graph, [0, 1, 2, 3])
    assert oracles.contains_induced(sub, "diamond") == frozenset({0, 1, 2, 3})


def test_chromatic_number():
    assert chromatic_number(generate_named("cycle", 5)) == 3
    assert chromatic_number(generate_named("complete", 4)) == 4
    assert chromatic_number(Graph(0)) == 0
    assert chromatic_number(Graph(3)) == 1


def test_chromatic_number_of_gk_family():
    for k in (3, 4):
        g = generate_gk(k).graph
        assert chromatic_number(g) == k


def test_chromatic_number_of_long_path():
    # the colouring search once recursed per coloured vertex
    p = generate_named("path", 1500)
    assert chromatic_number(p) == 2
    c = find_k_colouring(p, 2)
    assert all(c[i] != c[i + 1] for i in range(1499))


def brute_k_colourable(g, k):
    return any(
        all(c[u] != c[v] for u, v in g.edges())
        for c in itertools.product(range(k), repeat=g.n)
    )


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=6))
def test_colouring_solver_matches_brute_force(g):
    for k in range(1, 5):
        assert (find_k_colouring(g, k) is not None) == brute_k_colourable(g, k)


def test_qualifying_two_pair_on_p4():
    p4 = generate_named("path", 4)
    pair, tag = qualifying_two_pair(p4)
    assert tag == "ii"
    assert (pair.x, pair.y) == (0, 2)


def test_qualifying_two_pair_on_c4():
    pair, tag = qualifying_two_pair(generate_named("cycle", 4))
    assert tag == "ii"
    assert (pair.x, pair.y) == (0, 2)


def test_qualifying_two_pair_rejects_complete():
    with pytest.raises(ValueError):
        qualifying_two_pair(generate_named("complete", 3))


def test_qualifying_two_pair_triangle_case():
    # pendant triangle {0,1,2} hanging off 2-3; {0,3} is a 2-pair with
    # separator {2} and x-side {0,1}
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    pair, tag = qualifying_two_pair(g)
    if tag == "iii":
        assert pair.separator == frozenset({2})
    else:
        assert tag == "ii"


def test_compactness_verdicts():
    kn = generate_named("complete", 5)
    assert is_compact_bruteforce(kn).compact
    # frozen fixture: C6 fails only at the whole graph
    verdict = is_compact_bruteforce(generate_named("cycle", 6))
    assert not verdict.compact
    assert verdict.failing_subset == frozenset(range(6))
    with pytest.raises(ValueError):
        is_compact_bruteforce(Graph(13))


def test_g3_is_not_compact(g3_bundle):
    # a frozen colouring exists, so R_4 is disconnected and G_3 cannot be
    # compact; the brute force must agree
    assert not is_compact_bruteforce(g3_bundle.graph).compact


def test_weakly_chordal_complement_duality():
    for g in all_labelled_graphs(5):
        assert is_weakly_chordal(g) == is_weakly_chordal(complement(g))


def test_anticonnected_probe_on_c4():
    c4 = generate_named("cycle", 4)
    probe, pair = two_pair_via_anticonnected_set(c4, 0, 1, 2)
    assert 1 in probe.t
    assert {0, 2} <= probe.d_of_t
    assert {pair.x, pair.y} == {0, 2}


def test_anticonnected_probe_on_g3(g3_bundle):
    g = g3_bundle.graph
    # chordless path w1 - u1 - z1 centred at u1 (a C_x-style vertex)
    probe, pair = two_pair_via_anticonnected_set(g, 6, 2, 8)
    assert {(p.x, p.y) for p in find_two_pairs(g)} >= {(pair.x, pair.y)}


def test_anticonnected_probe_preconditions():
    c4 = generate_named("cycle", 4)
    with pytest.raises(ValueError):
        two_pair_via_anticonnected_set(c4, 0, 1, 1)
    with pytest.raises(ValueError):
        two_pair_via_anticonnected_set(c4, 0, 3, 1)  # 0 and 1 adjacent
    with pytest.raises(ValueError):
        two_pair_via_anticonnected_set(generate_named("cycle", 5), 0, 1, 2)
