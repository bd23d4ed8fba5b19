"""The mask-based certificate engine against its reference implementations.

The oracles in ``oracles.py`` relabel an induced subgraph at every stage,
scan all 2-pairs, compute the exact chromatic number and emit sequences
recursively; the library must produce the same certificates, the same chi and
the same steps.
"""

import random

import oracles
from recolouring import (
    Colouring,
    Graph,
    TriangleRemoval,
    certified_chromatic_number,
    chromatic_number,
    find_elimination_certificate,
    find_k_colouring,
    is_complete,
    qualifying_two_pair,
    random_cochordal,
    random_graph,
    recolour_compact,
)

from conftest import all_labelled_graphs


def events_of(cert):
    return None if cert is None else cert.events


def seeded_family_graphs():
    """Paths, random trees, co-chordal and ER graphs with n <= 40."""
    rng = random.Random(2024)
    out = []
    for n in range(2, 41, 2):
        out.append(Graph(n, [(i, i + 1) for i in range(n - 1)]))
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(Graph(n, [(perm[rng.randrange(i)], perm[i]) for i in range(1, n)]))
        out.append(random_cochordal(n, seed=rng.randrange(1 << 30)))
        out.append(random_cochordal(n, seed=rng.randrange(1 << 30)))
        out.append(random_graph(min(n, 16), rng.uniform(0.1, 0.9), seed=rng.randrange(1 << 30)))
    return out


def test_certificates_match_oracle_on_all_graphs_up_to_six_vertices():
    graphs = 0
    for n in range(7):
        for g in all_labelled_graphs(n):
            graphs += 1
            assert events_of(find_elimination_certificate(g)) == events_of(
                oracles.find_elimination_certificate(g)
            ), g.edges()
            if not is_complete(g):
                assert qualifying_two_pair(g) == oracles.qualifying_two_pair(g), g.edges()
    assert graphs == 33_868


def test_certificates_match_oracle_on_seeded_families():
    certified = 0
    for g in seeded_family_graphs():
        cert = find_elimination_certificate(g)
        assert events_of(cert) == events_of(oracles.find_elimination_certificate(g)), g.edges()
        certified += cert is not None
    assert certified >= 80


def test_certified_chromatic_number_is_exact_up_to_six_vertices():
    certified = 0
    for n in range(7):
        for g in all_labelled_graphs(n):
            cert = find_elimination_certificate(g)
            if cert is None:
                continue
            certified += 1
            assert certified_chromatic_number(g, cert) == chromatic_number(g), g.edges()
    assert certified == 32_287


def random_colouring(g, p, rng):
    """A proper p-colouring: a shuffled optimal colouring after a random walk."""
    perm = list(range(p))
    rng.shuffle(perm)
    col = [perm[c] for c in find_k_colouring(g, chromatic_number(g))]
    for _ in range(3 * g.n):
        v = rng.randrange(g.n)
        col[v] = rng.choice([c for c in range(p) if all(col[u] != c for u in g.neighbours(v))])
    return Colouring(tuple(col), p)


def test_sequences_match_recursive_oracle():
    rng = random.Random(99)
    graphs = [g for n in range(1, 6) for g in all_labelled_graphs(n)]
    checked = 0
    for g in graphs + seeded_family_graphs():
        cert = find_elimination_certificate(g)
        if cert is None:
            continue
        p = chromatic_number(g) + 1
        if any(isinstance(e, TriangleRemoval) for e in cert.events):
            p = max(p, 4)
        for _ in range(2):
            a, b = random_colouring(g, p, rng), random_colouring(g, p, rng)
            got = recolour_compact(g, cert, a, b)
            want = oracles.recolour_compact_recursive(g, cert, a, b)
            assert got.steps == want.steps, (g.edges(), a, b)
            checked += 1
    assert checked >= 2000
