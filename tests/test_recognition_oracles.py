"""The forbidden-pattern scan and the co-chordal test against their oracles.

``contains_induced`` looks each subset's edge code up in a table of the
pattern's labelled copies; ``oracles.contains_induced`` matches the subset
against every permutation of the pattern.  ``is_co_chordal`` looks for an
induced cycle of length >= 4 in the complement; ``oracles.is_co_chordal``
looks for an induced 2K2 and an antihole in the graph itself.  Both pairs
must agree on every labelled graph with at most six vertices, where every
labelled copy of each pattern occurs, and on larger seeded samples.
"""

import pytest

import oracles
from conftest import all_labelled_graphs
from recolouring import contains_induced, is_co_chordal, random_cochordal, random_graph
from recolouring.recognition import PATTERNS


def assert_agrees(g):
    for name in oracles.PATTERN_GRAPHS:
        got = contains_induced(g, name)
        assert got == oracles.contains_induced(g, name), (name, g.n, g.edges())
    assert is_co_chordal(g) == oracles.is_co_chordal(g), (g.n, g.edges())


def test_pattern_table_names_every_oracle_pattern():
    assert set(PATTERNS) == set(oracles.PATTERN_GRAPHS)


@pytest.mark.parametrize("n", range(7))
def test_agrees_on_all_labelled_graphs(n):
    for g in all_labelled_graphs(n):
        assert_agrees(g)


def test_agrees_on_seeded_cochordal_graphs():
    for n in range(20, 31):
        assert_agrees(random_cochordal(n, seed=n))


def test_agrees_on_seeded_random_graphs():
    for n in range(10, 21):
        assert_agrees(random_graph(n, 0.3, seed=n))
