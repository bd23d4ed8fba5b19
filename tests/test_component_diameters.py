"""Exact component diameters of R_k against the all-sources BFS oracle.

``summarize`` takes one BFS source per canonical colouring (colours renamed
in order of first use), runs the sources together in bit-parallel sweeps and
reads each component's diameter off the eccentricities of its members'
canonical forms; ``oracles.component_diameter`` runs a BFS from every member.
They must agree on every component, at every diameter cap.  The sweeps'
eccentricities must also equal ``oracles.canonical_eccentricities``, one
plain BFS per canonical root, at any sweep width.
"""

import tracemalloc

import pytest

import oracles
import recolouring.explorer as explorer
from recolouring import build_reconfiguration_graph, generate_named, summarize

from conftest import all_labelled_graphs


def assert_matches_oracle(r):
    """Check summarize against the oracle at the default cap and at a cap
    equal to each component size, so that capped and uncapped components
    mix."""
    want = [oracles.component_diameter(r, m) for m in r.components]
    sizes = [len(m) for m in r.components]
    assert summarize(r).component_diameters == want
    for cap in sorted(set(sizes)):
        s = summarize(r, diameter_cap=cap)
        assert s.diameter_capped == [size > cap for size in sizes]
        assert s.component_diameters == [
            None if size > cap else d for size, d in zip(sizes, want)
        ]


def exhaustive_cases():
    for n in range(5):
        for g in all_labelled_graphs(n):
            for k in range(n + 2):
                yield g, k
    for g in all_labelled_graphs(5):
        yield g, 3


def test_diameters_match_oracle_on_all_small_graphs():
    cases = 0
    for g, k in exhaustive_cases():
        assert_matches_oracle(build_reconfiguration_graph(g, k))
        cases += 1
    assert cases == 1461


def test_diameters_match_oracle_on_g3(g3_bundle):
    # R_4(G_3): colour renamings permute its 25 components among themselves
    r = build_reconfiguration_graph(g3_bundle.graph, 4)
    assert len(r.components) == 25
    assert_matches_oracle(r)


def test_one_bfs_per_canonical_colouring():
    r = build_reconfiguration_graph(generate_named("cycle", 6), 4)
    assert r.node_count() == 732
    s = summarize(r)
    assert s.diameter == oracles.component_diameter(r, r.components[0])
    assert s.eccentricity_bfs_runs == 31
    assert summarize(r, compute_diameters=False).eccentricity_bfs_runs == 0
    assert summarize(r, diameter_cap=731).eccentricity_bfs_runs == 0


@pytest.mark.parametrize("compute_diameters", [True, False])
def test_diameter_work_is_skipped_when_not_asked(monkeypatch, compute_diameters):
    calls = []
    real = explorer._canonical_nodes
    monkeypatch.setattr(
        explorer, "_canonical_nodes", lambda r: calls.append(r) or real(r)
    )
    r = build_reconfiguration_graph(generate_named("path", 4), 3)
    summarize(r, compute_diameters=compute_diameters)
    assert len(calls) == (1 if compute_diameters else 0)


def assert_sweeps_match_oracle(r):
    want = oracles.canonical_eccentricities(r)
    assert explorer._eccentricities(r.adjacency, sorted(want)) == want


@pytest.mark.parametrize("width", [explorer.SWEEP_WIDTH, 1, 3])
def test_sweeps_match_one_bfs_per_root(monkeypatch, g3_bundle, width):
    # widths 1 and 3 split the roots into many sweeps, the last one partial
    monkeypatch.setattr(explorer, "SWEEP_WIDTH", width)
    cases = 0
    for g, k in exhaustive_cases():
        assert_sweeps_match_oracle(build_reconfiguration_graph(g, k))
        cases += 1
    assert cases == 1461
    assert_sweeps_match_oracle(build_reconfiguration_graph(g3_bundle.graph, 4))


def test_sweep_memory_is_set_by_the_width(monkeypatch):
    # R_3(P_12): 6,144 nodes and 1,024 canonical roots, in four sweeps
    monkeypatch.setattr(explorer, "SWEEP_WIDTH", 256)
    r = build_reconfiguration_graph(generate_named("path", 12), 3)
    tracemalloc.start()
    try:
        s = summarize(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.eccentricity_bfs_runs == 1024
    assert s.diameter == 38
    assert peak < 3_000_000
