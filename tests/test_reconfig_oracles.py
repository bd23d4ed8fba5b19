"""Enumeration, R_k and bfs_distance against the earlier routes in oracles.

The library enumerates mixed-radix codes on one stack frame per vertex,
builds R_k by code arithmetic alone (a switch is proper iff its code was
enumerated, so no edge of G is read) with one flat BFS for the components,
and measures distances by a bidirectional BFS over codes that builds no part
of R_k; the oracles are the recursive enumeration, the tuple-indexed build
that checks each switch against the neighbours' colours, with deque
components, a BFS on the built graph, and the one-directional BFS over
assignment tuples.  They must agree on every colouring, adjacency row,
component and distance.
"""

import random

import oracles
from recolouring import (
    Colouring,
    Graph,
    bfs_distance,
    build_reconfiguration_graph,
    decode,
    enumerate_colourings,
    generate_named,
)

from test_component_diameters import exhaustive_cases


def assert_graph_matches_oracle(g, k):
    r = build_reconfiguration_graph(g, k)
    o = oracles.build_reconfiguration_graph(g, k)
    assert r.palette == o.palette == k
    assert all(x < y for x, y in zip(r.nodes, r.nodes[1:]))
    # r.nodes and o.nodes are the two enumerations' output
    assert [r.assignment(i) for i in range(r.node_count())] == [
        c.assignment for c in o.nodes
    ]
    assert r.adjacency == o.adjacency
    assert r.components == o.components
    return o


def assert_distances_match_oracle(g, k, o, rng, exhaustive):
    """Every ordered pair when R_k has at most 64 nodes and ``exhaustive`` is
    set, 16 seeded pairs otherwise."""
    nodes = o.nodes
    if not nodes:
        return
    if exhaustive and len(nodes) <= 64:
        pairs = [(a, b) for a in nodes for b in nodes]
    else:
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(16)]
    for a, b in pairs:
        assert bfs_distance(g, k, a, b) == oracles.bfs_distance(g, k, a, b, reconfig=o)


def test_reconfiguration_graphs_match_oracle_on_all_small_graphs():
    # the 1,024 five-vertex graphs get sampled pairs only: all ordered pairs
    # there would take about 85 s
    rng = random.Random(5)
    cases = 0
    for g, k in exhaustive_cases():
        o = assert_graph_matches_oracle(g, k)
        assert_distances_match_oracle(g, k, o, rng, exhaustive=g.n <= 4)
        cases += 1
    assert cases == 1461


def test_reconfiguration_graph_matches_oracle_on_g3(g3_bundle):
    g = g3_bundle.graph
    o = assert_graph_matches_oracle(g, 4)
    assert len(o.nodes) == 1272 and len(o.components) == 25
    assert_distances_match_oracle(g, 4, o, random.Random(3), exhaustive=False)


def random_tree(n, rng):
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def test_shifted_colourings_match_the_implicit_oracle(g3_bundle):
    # the pattern of the benchmark's distance queries: a seeded colouring
    # against itself with every colour shifted by a seeded offset
    rng = random.Random(9)
    cases = [(generate_named("path", 10), 3, []), (generate_named("cycle", 8), 4, [])]
    cases += [(random_tree(10, rng), 3, []) for _ in range(3)]
    # G_3's frozen colouring is an isolated node of R_4, and so is its shift
    cases.append((g3_bundle.graph, 4, [g3_bundle.frozen_colouring.assignment]))
    distances = []
    for g, k, extra in cases:
        codes = enumerate_colourings(g, k)
        starts = [decode(rng.choice(codes), g.n, k) for _ in range(8)] + extra
        for a in starts:
            shift = rng.randrange(1, k)
            b = tuple((x + shift) % k for x in a)
            ca, cb = Colouring(a, k), Colouring(b, k)
            d = oracles.implicit_bfs_distance(g, k, ca, cb)
            assert bfs_distance(g, k, ca, cb) == d
            assert bfs_distance(g, k, cb, ca) == d
            distances.append(d)
    assert None in distances and any(distances)
