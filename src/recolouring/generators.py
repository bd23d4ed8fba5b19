"""Graph generators: the four-clique counterexample family, named small
graphs, seeded random graphs (plain and co-chordal), and the time-boxed search
for a pattern-free 4-chromatic non-compact graph."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional

from . import io
from .explorer import Colouring, is_frozen, is_proper
from .graph import Graph, complement
from .recognition import (
    chromatic_number,
    contains_induced,
    find_k_colouring,
    is_co_chordal,
    is_compact_bruteforce,
    is_weakly_chordal,
)


def _check_vertex_count(n: int) -> None:
    """Refuse, before any allocation, a graph the loaders would refuse."""
    if n > io.MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed the limit of {io.MAX_VERTICES}")


@dataclass
class GkBundle:
    """The counterexample graph for one k, with a proper k-colouring and a
    frozen (k+1)-colouring.  The frozen colouring is an isolated node of
    R_{k+1}; the base colouring, which leaves colour k unused, is another
    node, so the pair proves R_{k+1} disconnected."""

    graph: Graph
    k: int
    base_colouring: Colouring
    frozen_colouring: Colouring


def generate_gk(k: int) -> GkBundle:
    """Four cliques K_{k-1} (u, v, w, z blocks) plus hubs x and y.

    x and y see every u_i and v_i; u_1 and v_1 see every w_i and z_i; the two
    extra edges are x-z_1 and y-w_1.  Vertex ids: x=0, y=1, then the u, v, w,
    z blocks in index order.

    Both colourings are given in closed form and checked in O(n^2):
    - base k-colouring: x = y = 1, u = v = (0, 2, 3, ..., k-1) and
      w = z = (2, 1, 3, ..., k-1);
    - frozen (k+1)-colouring: x = 0, y = 1, u = (2, 3, 4, ..., k),
      v = (3, 2, 4, ..., k), w = (0, 1, 4, ..., k) and z = (1, 0, 4, ..., k).
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    _check_vertex_count(4 * k - 2)
    size = k - 1
    x, y = 0, 1
    u = list(range(2, 2 + size))
    v = list(range(2 + size, 2 + 2 * size))
    w = list(range(2 + 2 * size, 2 + 3 * size))
    z = list(range(2 + 3 * size, 2 + 4 * size))
    n = 2 + 4 * size

    edges = []
    for block in (u, v, w, z):
        edges.extend(combinations(block, 2))
    for hub in (x, y):
        edges.extend((hub, t) for t in u + v)
    for hub in (u[0], v[0]):
        edges.extend((hub, t) for t in w + z)
    edges.append((x, z[0]))
    edges.append((y, w[0]))

    labels = {x: "x", y: "y"}
    for i, vid in enumerate(u, start=1):
        labels[vid] = f"u{i}"
    for i, vid in enumerate(v, start=1):
        labels[vid] = f"v{i}"
    for i, vid in enumerate(w, start=1):
        labels[vid] = f"w{i}"
    for i, vid in enumerate(z, start=1):
        labels[vid] = f"z{i}"

    g = Graph(n, edges, labels=labels)
    # colours of x and y, then of the u, v, w and z blocks; past its second
    # member, each block is coloured 3, 4, ..., k-1 (base) or 4, 5, ..., k
    tail = list(range(3, k))
    base = Colouring(tuple([1, 1] + 2 * ([0, 2] + tail) + 2 * ([2, 1] + tail)), k)
    if not is_proper(g, base):
        raise AssertionError("base colouring is not a proper k-colouring")
    top = list(range(4, k + 1))
    blocks = ([2, 3], [3, 2], [0, 1], [1, 0])
    frozen = Colouring(tuple([0, 1] + [c for b in blocks for c in b + top]), k + 1)
    if not is_frozen(g, frozen):
        raise AssertionError("closed-form (k+1)-colouring is not frozen")
    return GkBundle(g, k, base, frozen)


def generate_named(name: str, n: Optional[int] = None) -> Graph:
    """Standard small graphs with canonical labelling."""
    parametric = {"path", "cycle", "complete", "complete_bipartite_minus_matching"}
    fixed = {"diamond", "p5", "p5_complement", "c5", "2k2"}
    if name in parametric:
        if n is None:
            raise ValueError(f"generator {name!r} requires a size parameter")
        _check_vertex_count(2 * n if name == "complete_bipartite_minus_matching" else n)
    elif name in fixed:
        if n is not None:
            raise ValueError(f"generator {name!r} takes no size parameter")
    else:
        raise ValueError(f"unknown graph name {name!r}")

    if name == "path":
        if n < 1:
            raise ValueError("path needs n >= 1")
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if name == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    if name == "complete":
        if n < 0:
            raise ValueError("complete needs n >= 0")
        return Graph(n, list(combinations(range(n), 2)))
    if name == "complete_bipartite_minus_matching":
        if n < 1:
            raise ValueError("complete_bipartite_minus_matching needs n >= 1")
        edges = [(i, n + j) for i in range(n) for j in range(n) if i != j]
        return Graph(2 * n, edges)
    if name == "diamond":
        return Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    if name == "p5":
        return generate_named("path", 5)
    if name == "p5_complement":
        return complement(generate_named("path", 5))
    if name == "c5":
        return generate_named("cycle", 5)
    if name == "2k2":
        return Graph(4, [(0, 1), (2, 3)])
    raise AssertionError


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi sample."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    _check_vertex_count(n)
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u, v in combinations(range(n), 2)
        if rng.random() < edge_probability
    ]
    return Graph(n, edges)


def random_cochordal(n: int, seed: int) -> Graph:
    """Complement of a random chordal graph built by a random construction
    order; every sample passes the co-chordal recognizer."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_vertex_count(n)
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        if rng.random() < 0.15:
            continue  # occasionally leave v isolated in the chordal graph
        anchor = rng.randrange(v)
        clique = {anchor}
        while True:
            candidates = [
                u for u in range(v) if u not in clique and clique <= adj[u]
            ]
            if not candidates or rng.random() < 0.5:
                break
            clique.add(rng.choice(candidates))
        for u in clique:
            adj[u].add(v)
            adj[v].add(u)
    chordal = Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
    g = complement(chordal)
    if not is_co_chordal(g):
        raise AssertionError("random chordal construction failed")
    return g


@dataclass
class SearchReport:
    candidates: List[Dict] = field(default_factory=list)
    graphs: List[Graph] = field(default_factory=list)
    budget_spent: float = 0.0
    exhausted: bool = False
    graphs_examined: int = 0


def _twin_blowup(base: Graph) -> Graph:
    """Replace every vertex of ``base`` by a pair of adjacent true twins."""
    n = base.n
    edges = [(2 * v, 2 * v + 1) for v in range(n)]
    for u, v in base.edges():
        edges.extend((a, b) for a in (2 * u, 2 * u + 1) for b in (2 * v, 2 * v + 1))
    return Graph(2 * n, edges)


def _candidate_check(g: Graph) -> Optional[Dict]:
    """Full property transcript if g is a hit, else None."""
    # C5 is a hole, and longer holes and antiholes contain P5 and P5bar
    if not is_weakly_chordal(g) or any(
        contains_induced(g, pat) is not None for pat in ("p5", "p5_complement")
    ):
        return None
    if find_k_colouring(g, 3) is not None:
        return None  # 3-colourable, chromatic number below 4
    if find_k_colouring(g, 4) is None:
        return None  # needs more than 4 colours
    verdict = is_compact_bruteforce(g)
    if verdict.compact:
        return None
    # re-verify every claimed property with the independent checkers
    assert chromatic_number(g) == 4
    assert all(
        contains_induced(g, pat) is None for pat in ("c5", "p5", "p5_complement")
    )
    assert is_weakly_chordal(g)
    return {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges()],
        "chromatic_number": 4,
        "p5_p5bar_c5_free": True,
        "weakly_chordal": True,
        "compact": False,
        "failing_subset": sorted(verdict.failing_subset),
    }


def search_h(
    n: int, budget_seconds: float, seed: int, stop_after: Optional[int] = 1
) -> SearchReport:
    """Search n-vertex graphs for a (P5, P5-complement, C5)-free 4-chromatic
    non-compact witness.

    Structured true-twin blow-ups are tried first, then (for small n) full
    labelled enumeration, otherwise randomized sampling with local edge flips.
    The search ends when the budget runs out or, when ``stop_after`` is set,
    after that many verified witnesses have been collected.
    """
    if n > 9:
        raise ValueError("search is limited to n <= 9")
    started = time.monotonic()
    deadline = started + budget_seconds
    rng = random.Random(seed)
    report = SearchReport()
    seen_edge_sets = set()

    def enough() -> bool:
        return stop_after is not None and len(report.candidates) >= stop_after

    def consider(g: Graph) -> bool:
        key = tuple(g.edges())
        if key in seen_edge_sets:
            return False
        seen_edge_sets.add(key)
        report.graphs_examined += 1
        hit = _candidate_check(g)
        if hit is not None:
            report.candidates.append(hit)
            report.graphs.append(g)
            return True
        return False

    # structured preamble: true-twin blow-ups of all graphs on n//2 vertices
    if n % 2 == 0:
        half = n // 2
        pairs = list(combinations(range(half), 2))
        for mask in range(1 << len(pairs)):
            if time.monotonic() > deadline or enough():
                break
            base = Graph(half, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            consider(_twin_blowup(base))

    all_pairs = list(combinations(range(n), 2))
    if len(all_pairs) <= 15:
        # full labelled enumeration is feasible
        complete_sweep = True
        for mask in range(1 << len(all_pairs)):
            if time.monotonic() > deadline or enough():
                complete_sweep = False
                break
            g = Graph(n, [all_pairs[i] for i in range(len(all_pairs)) if (mask >> i) & 1])
            consider(g)
        report.exhausted = complete_sweep
    else:
        while time.monotonic() < deadline and not enough():
            p = rng.uniform(0.3, 0.8)
            edges = set(e for e in all_pairs if rng.random() < p)
            g = Graph(n, edges)
            if consider(g):
                continue
            # a few local edge flips around the sample
            for _ in range(8):
                if time.monotonic() > deadline or enough():
                    break
                e = rng.choice(all_pairs)
                edges2 = set(edges)
                if e in edges2:
                    edges2.remove(e)
                else:
                    edges2.add(e)
                consider(Graph(n, edges2))

    # deterministic report order: by canonical adjacency encoding
    order = sorted(
        range(len(report.graphs)),
        key=lambda i: (report.graphs[i].n, tuple(report.graphs[i].edges())),
    )
    report.graphs = [report.graphs[i] for i in order]
    report.candidates = [report.candidates[i] for i in order]
    report.budget_spent = time.monotonic() - started
    return report
