"""Enumeration, R_k and bfs_distance against the earlier routes in oracles.

The library enumerates on an explicit stack, builds R_k through
``neighbour_assignments`` with one flat BFS for the components, and measures
distances by an implicit BFS that builds no part of R_k; the oracles are the
recursive enumeration, the tuple-indexed build with deque components, and a
BFS on the built graph.  They must agree on every colouring, adjacency row,
component and distance.
"""

import random

import oracles
from recolouring import bfs_distance, build_reconfiguration_graph

from test_component_diameters import exhaustive_cases


def assert_graph_matches_oracle(g, k):
    r = build_reconfiguration_graph(g, k)
    o = oracles.build_reconfiguration_graph(g, k)
    assert r.palette == o.palette == k
    # r.nodes and o.nodes are the two enumerations' output
    assert r.nodes == [c.assignment for c in o.nodes]
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
