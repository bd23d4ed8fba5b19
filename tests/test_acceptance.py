"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the library at full stated scale
and prints a single pass/fail line, so the suite output doubles as an
acceptance report.
"""

import itertools
import os
import random

from recolouring import (
    CapacityError,
    Colouring,
    TriangleRemoval,
    bfs_distance,
    build_reconfiguration_graph,
    chromatic_number,
    contains_induced,
    decode,
    enumerate_colourings,
    find_elimination_certificate,
    find_k_colouring,
    find_two_pairs,
    generate_gk,
    generate_named,
    induced_subgraph,
    is_compact_bruteforce,
    is_frozen,
    is_proper,
    is_weakly_chordal,
    random_cochordal,
    random_graph,
    recolour_compact,
    recolour_complete,
    search_h,
    summarize,
    validate_sequence,
)
from recolouring.graph import Graph, is_complete
from recolouring.recognition import subgraph_passes_compactness

from conftest import all_labelled_graphs
from oracles import has_long_chordless_path


def report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"{name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


def test_counterexample_family_disconnects_reconfiguration_graph():
    bundle = generate_gk(3)
    g = bundle.graph
    ok = is_weakly_chordal(g) and chromatic_number(g) == 3
    r = build_reconfiguration_graph(g, 4)
    s = summarize(r, compute_diameters=False)
    ok = ok and (s.colouring_count, s.component_count) == (1272, 25)
    ok = ok and len(s.frozen_colouring_indices) == 24
    detail = (
        f"n={g.n}, colourings={s.colouring_count}, "
        f"components={s.component_count}, frozen={len(s.frozen_colouring_indices)}"
    )
    # larger members are too large to materialize in full; for each k, the
    # frozen (k+1)-colouring is an isolated node of R_{k+1} and the base
    # k-colouring, which leaves colour k unused, is another node
    witnessed = []
    for k in range(3, 41):
        bundle = generate_gk(k)
        g, base, frozen = bundle.graph, bundle.base_colouring, bundle.frozen_colouring
        base_in_next = Colouring(base.assignment, k + 1)
        if (
            base.k == k
            and is_proper(g, base)
            and frozen.k == k + 1
            and is_frozen(g, frozen)
            and not is_frozen(g, base_in_next)
        ):
            witnessed.append(k)
    ok = ok and witnessed == list(range(3, 41))
    detail += f"; disconnection witnessed for k=3..40: {len(witnessed)} of 38"
    report("counterexample family disconnection", ok, detail)


def test_weakly_chordal_equals_two_pair_closure_on_six_vertices():
    memo = {}

    def complete_or_has_pair(sub):
        key = (sub.n, tuple(sub.adj))
        if key not in memo:
            memo[key] = is_complete(sub) or bool(find_two_pairs(sub))
        return memo[key]

    subsets = [
        s
        for size in range(1, 7)
        for s in itertools.combinations(range(6), size)
    ]
    mismatches = 0
    total = 0
    for g in all_labelled_graphs(6):
        total += 1
        closure = all(
            complete_or_has_pair(induced_subgraph(g, s)[0]) for s in subsets
        )
        if closure != is_weakly_chordal(g):
            mismatches += 1
    report(
        "weakly chordal iff every induced subgraph complete or has a 2-pair",
        mismatches == 0,
        f"{total} graphs, {mismatches} mismatches",
    )


def test_two_pair_separator_criterion_equals_path_criterion():
    def oracle(g):
        return {
            (x, y)
            for x, y in itertools.combinations(range(g.n), 2)
            if not g.has_edge(x, y) and not has_long_chordless_path(g, x, y)
        }

    checked = 0
    bad = 0
    for n in range(6):
        for g in all_labelled_graphs(n):
            checked += 1
            if {(p.x, p.y) for p in find_two_pairs(g)} != oracle(g):
                bad += 1
    rng = random.Random(82301)
    for _ in range(500):
        g = random_graph(8, rng.uniform(0.1, 0.9), seed=rng.randrange(1 << 30))
        checked += 1
        if {(p.x, p.y) for p in find_two_pairs(g)} != oracle(g):
            bad += 1
    report(
        "2-pair separator criterion equals path criterion",
        bad == 0,
        f"{checked} graphs, {bad} disagreements",
    )


def test_cochordal_two_pairs_have_nested_neighbourhoods():
    rng = random.Random(43)
    checked = 0
    bad_nesting = 0
    bad_compact = 0
    for i in range(200):
        n = rng.randint(4, 12)
        g = random_cochordal(n, seed=rng.randrange(1 << 30))
        checked += 1
        for p in find_two_pairs(g):
            x_in_y = g.adj[p.x] & ~g.adj[p.y] == 0
            y_in_x = g.adj[p.y] & ~g.adj[p.x] == 0
            if not (x_in_y or y_in_x):
                bad_nesting += 1
        if g.n <= 10 and not is_compact_bruteforce(g).compact:
            bad_compact += 1
    report(
        "co-chordal graphs: nested 2-pair neighbourhoods and compactness",
        bad_nesting == 0 and bad_compact == 0,
        f"{checked} samples, {bad_nesting} nesting failures, "
        f"{bad_compact} compactness failures",
    )


def test_pattern_free_three_colourable_graphs_are_compact():
    memo = {}

    def passes(sub):
        key = (sub.n, tuple(sub.adj))
        if key not in memo:
            memo[key] = subgraph_passes_compactness(sub)
        return memo[key]

    subsets = [
        s
        for size in range(1, 7)
        for s in itertools.combinations(range(6), size)
    ]
    tested = 0
    failures = 0
    for g in all_labelled_graphs(6):
        if find_k_colouring(g, 3) is None:
            continue
        if any(
            contains_induced(g, pat) is not None
            for pat in ("p5", "p5_complement", "c5")
        ):
            continue
        tested += 1
        if not all(passes(induced_subgraph(g, s)[0]) for s in subsets):
            failures += 1
    report(
        "3-colourable pattern-free graphs are compact",
        failures == 0,
        f"{tested} qualifying graphs, {failures} exceptions",
    )


def test_certified_recolouring_bounds_on_random_instances():
    rng = random.Random(20260823)
    instances = 0
    violations = 0
    disconnected = 0
    while instances < 500:
        n = rng.randint(4, 10)
        if rng.random() < 0.5:
            g = random_cochordal(n, seed=rng.randrange(1 << 30))
        else:
            g = random_graph(n, rng.uniform(0.2, 0.7), seed=rng.randrange(1 << 30))
        cert = find_elimination_certificate(g)
        if cert is None:
            continue
        chi = chromatic_number(g)
        p = chi + 1
        if any(isinstance(e, TriangleRemoval) for e in cert.events):
            p = max(p, 4)
        try:
            r = build_reconfiguration_graph(g, p, cap=20_000)
        except CapacityError:
            continue  # instance too large to verify exactly; resample
        instances += 1
        if summarize(r, compute_diameters=False).component_count != 1:
            disconnected += 1
        a = Colouring(decode(rng.choice(r.nodes), g.n, p), p)
        b = Colouring(decode(rng.choice(r.nodes), g.n, p), p)
        seq = recolour_compact(g, cert, a, b)
        rep = validate_sequence(g, seq)
        dist = bfs_distance(g, p, a, b)
        if not (
            rep.ok
            and seq.max_per_vertex() <= 2 * g.n
            and len(seq) <= 2 * g.n * g.n
            and dist is not None
            and len(seq) >= dist
        ):
            violations += 1
    report(
        "certified recolouring: valid, per-vertex <= 2n, total <= 2n^2, "
        "connected palette",
        violations == 0 and disconnected == 0,
        f"{instances} instances, {violations} bound violations, "
        f"{disconnected} disconnected",
    )


def test_complete_graph_base_case_all_pairs():
    bad = 0
    pairs = 0
    for n in range(1, 6):
        p = n + 1
        kn = generate_named("complete", n)
        cols = [
            Colouring(decode(code, n, p), p) for code in enumerate_colourings(kn, p)
        ]
        r = build_reconfiguration_graph(kn, p)
        assert summarize(r, compute_diameters=False).component_count == 1
        for a in cols:
            for b in cols:
                pairs += 1
                seq = recolour_complete(n, p, a, b)
                if not (
                    validate_sequence(kn, seq).ok
                    and seq.max_per_vertex() <= 2 * n
                ):
                    bad += 1
    report(
        "complete-graph base case over all colouring pairs",
        bad == 0,
        f"{pairs} ordered pairs, {bad} failures",
    )


def test_colouring_counts_match_chromatic_polynomials():
    bad = 0
    total = 0
    for n in range(1, 9):
        for k in range(0, 6):
            total += 3
            if len(enumerate_colourings(generate_named("path", n), k)) != (
                k * (k - 1) ** (n - 1)
            ):
                bad += 1
            expected_kn = 1
            for i in range(n):
                expected_kn *= k - i
            if len(enumerate_colourings(generate_named("complete", n), k)) != max(
                expected_kn, 0
            ):
                bad += 1
            if n >= 3:
                if len(enumerate_colourings(generate_named("cycle", n), k)) != (
                    (k - 1) ** n + (-1) ** n * (k - 1)
                ):
                    bad += 1
            else:
                total -= 1
    report(
        "colouring counts match chromatic polynomials",
        bad == 0,
        f"{total} (graph, palette) cases, {bad} mismatches",
    )


def test_witness_search_finds_or_reports():
    budget = float(os.environ.get("RECOLOURING_WITNESS_BUDGET", "600"))
    rep = search_h(8, budget_seconds=budget, seed=0)
    if rep.candidates:
        hit = rep.candidates[0]
        g = Graph(hit["n"], [tuple(e) for e in hit["edges"]])
        verified = (
            chromatic_number(g) == 4
            and all(
                contains_induced(g, pat) is None
                for pat in ("p5", "p5_complement", "c5")
            )
            and is_weakly_chordal(g)
            and not is_compact_bruteforce(g).compact
        )
        report(
            "search for a pattern-free 4-chromatic non-compact witness",
            verified,
            f"witness on {g.n} vertices with {g.edge_count()} edges after "
            f"{rep.graphs_examined} graphs, {rep.budget_spent:.1f}s",
        )
    else:
        # a negative outcome is reported, not failed: the search is best-effort
        report(
            "search for a pattern-free 4-chromatic non-compact witness",
            True,
            f"not found within budget ({rep.graphs_examined} graphs, "
            f"exhausted={rep.exhausted})",
        )
