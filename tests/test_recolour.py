import itertools
import random

import pytest
from hypothesis import given, settings

import recolouring.recolour as recolour_module
from recolouring import (
    CapacityError,
    CertificateError,
    CliqueComponentRemoval,
    Colouring,
    CompleteBase,
    EliminationCertificate,
    Graph,
    PairRemoval,
    PaletteError,
    RecolourSequence,
    TriangleRemoval,
    bfs_distance,
    decode,
    enumerate_colourings,
    find_elimination_certificate,
    generate_named,
    is_compact_bruteforce,
    recolour_compact,
    recolour_complete,
    validate_sequence,
)

from conftest import all_labelled_graphs, small_graphs


def test_recolour_complete_k2_needs_three_steps():
    a = Colouring((0, 1), 3)
    b = Colouring((1, 0), 3)
    seq = recolour_complete(2, 3, a, b)
    assert len(seq) == 3
    k2 = generate_named("complete", 2)
    assert validate_sequence(k2, seq).ok
    assert bfs_distance(k2, 3, a, b) == 3


def test_recolour_complete_rejects_small_palette():
    with pytest.raises(PaletteError):
        recolour_complete(3, 3, Colouring((0, 1, 2), 3), Colouring((1, 2, 0), 3))


def test_recolour_complete_rejects_improper_input():
    with pytest.raises(ValueError):
        recolour_complete(2, 3, Colouring((0, 0), 3), Colouring((0, 1), 3))


@pytest.mark.parametrize("n", range(1, 6))
def test_recolour_complete_all_pairs(n):
    kn = generate_named("complete", n)
    p = n + 1
    cols = [Colouring(decode(code, n, p), p) for code in enumerate_colourings(kn, p)]
    rng = random.Random(7)
    sample = rng.sample(list(itertools.product(cols, cols)), min(60, len(cols) ** 2))
    for a, b in sample:
        seq = recolour_complete(n, p, a, b)
        rep = validate_sequence(kn, seq)
        assert rep.ok
        assert seq.max_per_vertex() <= 2 * n


def test_certificate_of_complete_graph():
    cert = find_elimination_certificate(generate_named("complete", 5))
    assert cert is not None
    assert cert.events == [CompleteBase((0, 1, 2, 3, 4))]


def test_certificate_of_p4():
    cert = find_elimination_certificate(generate_named("path", 4))
    assert cert is not None
    assert isinstance(cert.events[0], PairRemoval)
    assert isinstance(cert.events[-1], CompleteBase)


def test_certificate_of_2k2_uses_component_removal():
    cert = find_elimination_certificate(generate_named("2k2"))
    assert cert is not None
    assert any(isinstance(e, CliqueComponentRemoval) for e in cert.events)


def test_no_certificate_for_c6():
    assert find_elimination_certificate(generate_named("cycle", 6)) is None


def test_certificate_existence_matches_compactness_bruteforce():
    for g in all_labelled_graphs(5):
        has_cert = find_elimination_certificate(g) is not None
        assert has_cert == is_compact_bruteforce(g).compact


def exhaustive_recolour_check(g, p, sample=None, seed=0):
    cert = find_elimination_certificate(g)
    assert cert is not None
    cols = [Colouring(decode(code, g.n, p), p) for code in enumerate_colourings(g, p)]
    pairs = list(itertools.product(cols, cols))
    if sample is not None and len(pairs) > sample:
        pairs = random.Random(seed).sample(pairs, sample)
    for a, b in pairs:
        seq = recolour_compact(g, cert, a, b)
        rep = validate_sequence(g, seq)
        assert rep.ok, rep.message
        assert seq.max_per_vertex() <= 2 * g.n
        assert len(seq) <= 2 * g.n * g.n
        dist = bfs_distance(g, p, a, b)
        assert dist is not None and len(seq) >= dist


def test_recolour_compact_p4_exhaustive():
    exhaustive_recolour_check(generate_named("path", 4), 3)


def test_recolour_compact_2k2_exhaustive():
    exhaustive_recolour_check(generate_named("2k2"), 3, sample=120)


def test_recolour_compact_triangle_chain():
    # two triangles joined by a bridge; the certificate removes one triangle
    # apex pair, then a nested-neighbourhood vertex, ending in a clique
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    cert = find_elimination_certificate(g)
    assert cert is not None
    assert any(isinstance(e, TriangleRemoval) for e in cert.events)
    exhaustive_recolour_check(g, 4, sample=150, seed=3)


def test_recolour_compact_identity_is_empty():
    g = generate_named("path", 3)
    cert = find_elimination_certificate(g)
    a = Colouring((0, 1, 0), 3)
    assert recolour_compact(g, cert, a, a).steps == []


def test_recolour_compact_rejects_small_palette():
    g = generate_named("path", 3)
    cert = find_elimination_certificate(g)
    with pytest.raises(PaletteError):
        recolour_compact(g, cert, Colouring((0, 1, 0), 2), Colouring((1, 0, 1), 2))


def test_recolour_compact_rejects_improper_colouring():
    g = generate_named("path", 3)
    cert = find_elimination_certificate(g)
    with pytest.raises(ValueError):
        recolour_compact(g, cert, Colouring((0, 0, 0), 3), Colouring((0, 1, 0), 3))


def test_recolour_compact_rejects_foreign_certificate():
    g = generate_named("path", 4)
    wrong = EliminationCertificate([CompleteBase((0, 1, 2, 3))])
    a = Colouring((0, 1, 0, 1), 3)
    b = Colouring((1, 0, 1, 0), 3)
    with pytest.raises(CertificateError):
        recolour_compact(g, wrong, a, b)
    # the certificate is replayed before the palette checks and the a == b
    # shortcut
    with pytest.raises(CertificateError):
        recolour_compact(g, wrong, a, a)
    with pytest.raises(CertificateError):
        recolour_compact(g, wrong, Colouring((0, 1, 0, 1), 2), Colouring((0, 1, 0, 1), 2))


@pytest.mark.parametrize(
    "events",
    [
        [PairRemoval(0, 0), CompleteBase((1, 2))],
        [CliqueComponentRemoval((0, 0, 1, 2)), CompleteBase(())],
        [CompleteBase((0, 1, 1, 2))],
    ],
)
def test_recolour_compact_rejects_repeated_vertices(events):
    # a self-pair would let x keep a colour that the rest of the sequence
    # ignores, so the emitted sequence could clash at x
    k3 = generate_named("complete", 3)
    with pytest.raises(CertificateError):
        recolour_compact(
            k3,
            EliminationCertificate(events),
            Colouring((0, 1, 2), 4),
            Colouring((0, 2, 1), 4),
        )


def test_recolour_compact_rejects_truncated_certificate():
    g = generate_named("path", 4)
    with pytest.raises(CertificateError):
        recolour_compact(
            g,
            EliminationCertificate([PairRemoval(0, 2)]),
            Colouring((0, 1, 0, 1), 3),
            Colouring((1, 0, 1, 0), 3),
        )


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=6))
def test_recolour_compact_random_pairs(g):
    cert = find_elimination_certificate(g)
    if cert is None:
        return
    from recolouring import chromatic_number

    p = max(chromatic_number(g) + 1, 4)
    cols = [
        Colouring(decode(code, g.n, p), p)
        for code in enumerate_colourings(g, p, cap=200_000)
    ]
    rng = random.Random(11)
    for _ in range(5):
        a, b = rng.choice(cols), rng.choice(cols)
        seq = recolour_compact(g, cert, a, b)
        assert validate_sequence(g, seq).ok
        assert seq.max_per_vertex() <= 2 * g.n


def test_validate_sequence_flags_violations():
    g = generate_named("path", 3)
    a = Colouring((0, 1, 0), 3)

    def seq(steps, end):
        return RecolourSequence(a, steps, end)

    bad_clash = seq([(0, 1)], Colouring((1, 1, 0), 3))
    rep = validate_sequence(g, bad_clash)
    assert not rep.ok and rep.error_index == 0
    assert "clashes" in rep.message

    noop = seq([(0, 0)], a)
    assert not validate_sequence(g, noop).ok

    out_of_palette = seq([(0, 3)], a)
    assert not validate_sequence(g, out_of_palette).ok

    wrong_end = seq([(0, 2)], Colouring((0, 1, 0), 3))
    rep = validate_sequence(g, wrong_end)
    assert not rep.ok and "end colouring" in rep.message

    good = seq([(0, 2)], Colouring((2, 1, 0), 3))
    rep = validate_sequence(g, good)
    assert rep.ok and rep.total_steps == 1 and rep.per_vertex_counts == {0: 1}


def test_validate_sequence_rejects_improper_start():
    g = generate_named("complete", 2)
    s = RecolourSequence(Colouring((0, 0), 2), [], Colouring((0, 0), 2))
    assert "not proper" in validate_sequence(g, s).message


def test_bfs_distance_cases():
    p3 = generate_named("path", 3)
    a = Colouring((0, 1, 0), 3)
    assert bfs_distance(p3, 3, a, a) == 0
    assert bfs_distance(p3, 3, a, Colouring((2, 1, 0), 3)) == 1
    # two colourings of K2 with two colours live in different components
    k2 = generate_named("complete", 2)
    assert bfs_distance(k2, 2, Colouring((0, 1), 2), Colouring((1, 0), 2)) is None
    with pytest.raises(ValueError):
        bfs_distance(p3, 3, Colouring((0, 0, 0), 3), a)


def test_bfs_distance_on_a_long_path():
    n = 1500
    a = Colouring(tuple(i % 2 for i in range(n)), 2)
    b = Colouring(tuple(1 - i % 2 for i in range(n)), 2)
    assert bfs_distance(generate_named("path", n), 2, a, b) is None


def test_bfs_distance_stops_at_the_cap(monkeypatch):
    # R_3(P_60) has 3 * 2^59 nodes: without the patched cap this search
    # would run until memory is gone
    monkeypatch.setattr(recolour_module, "DEFAULT_CAP", 1000)
    n = 60
    a = Colouring(tuple(i % 2 for i in range(n)), 3)
    b = Colouring(tuple(1 - i % 2 for i in range(n)), 3)
    with pytest.raises(CapacityError):
        bfs_distance(generate_named("path", n), 3, a, b)
