"""The chordless-path search, the co-chordal test and the colouring search
against their oracles.

``find_hole``, ``find_antihole``, ``is_co_chordal`` and ``contains_induced``
share one iterative chordless-path search.  The cycle questions must return
the same tuple as ``oracles._find_induced_cycle``, the recursive search they
replaced, and ``is_co_chordal`` must also agree with
``oracles.is_co_chordal``, which looks for an induced 2K2 and an antihole in
the graph itself.  ``contains_induced`` need not return the
lexicographically first witness that ``oracles.contains_induced`` finds: it
must find one exactly when the oracle does, and its set must induce the
pattern (``oracles.induces_pattern``).  "Weakly chordal, P5-free and
P5bar-free", which the CLI reports as ``p5_p5bar_c5_free``, must equal the
three pattern scans of the oracle.  ``find_k_colouring`` runs on an explicit
stack; ``oracles.find_k_colouring`` recurses once per coloured vertex, and
both must return the same colouring (or None) for every palette size
k = 1..n+1.  All pairs must agree on every labelled graph with at most six
vertices, where every labelled copy of each pattern occurs, and on larger
seeded samples.
"""

import pytest

import oracles
from conftest import all_labelled_graphs
from recolouring import (
    complement,
    contains_induced,
    find_antihole,
    find_hole,
    find_k_colouring,
    generate_named,
    is_co_chordal,
    is_weakly_chordal,
    random_cochordal,
    random_graph,
)

PATTERNS = ("p5", "p5_complement", "c5")


def cycle_of(witness):
    return None if witness is None else witness.cycle


def assert_agrees(g):
    case = (g.n, g.edges())
    co = complement(g)
    assert cycle_of(find_hole(g)) == oracles._find_induced_cycle(g, 5), case
    assert cycle_of(find_antihole(g)) == oracles._find_induced_cycle(co, 5), case
    co_chordal = is_co_chordal(g)
    assert co_chordal == (oracles._find_induced_cycle(co, 4) is None), case
    assert co_chordal == oracles.is_co_chordal(g), case
    free = True
    for name in PATTERNS:
        got = contains_induced(g, name)
        expected = oracles.contains_induced(g, name)
        assert (got is None) == (expected is None), (name,) + case
        if got is not None:
            pattern = oracles.PATTERN_GRAPHS[name]
            assert oracles.induces_pattern(g, tuple(sorted(got)), pattern), (
                (name, sorted(got)) + case
            )
        free = free and expected is None
    assert free == (
        is_weakly_chordal(g)
        and contains_induced(g, "p5") is None
        and contains_induced(g, "p5_complement") is None
    ), case
    for k in range(1, g.n + 2):
        got = find_k_colouring(g, k)
        assert got == oracles.find_k_colouring(g, k), (k,) + case


def test_contains_induced_accepts_exactly_three_patterns():
    c6 = generate_named("cycle", 6)
    for name in PATTERNS:
        contains_induced(c6, name)
    for name in ("2k2", "k4", "diamond", "nonsense"):
        with pytest.raises(ValueError):
            contains_induced(c6, name)


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
