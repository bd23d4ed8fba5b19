"""Seeded graph families and colourings for the benchmark corpora.

Stdlib only and independent of the package under test, so the corpus and the
oracle facts recorded with it (colouring counts, chromatic numbers, planted
holes) do not depend on the code being measured.  A graph is a pair
``(n, edges)`` with ``edges`` a sorted list of ``(u, v)`` tuples, ``u < v``.
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations
from typing import Dict, List, Set, Tuple

Edges = List[Tuple[int, int]]


def _norm(edges) -> Edges:
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def path(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> Edges:
    return _norm(path(n) + [(0, n - 1)])


def relabelled(n: int, edges: Edges, rng: random.Random) -> Edges:
    """The same graph under a uniform random permutation of vertex ids."""
    perm = list(range(n))
    rng.shuffle(perm)
    return _norm((perm[u], perm[v]) for u, v in edges)


def random_tree(n: int, rng: random.Random) -> Edges:
    """Random recursive tree: vertex v attaches to a uniform earlier vertex."""
    return _norm((rng.randrange(v), v) for v in range(1, n))


def random_cochordal(n: int, rng: random.Random) -> Tuple[Edges, List[int]]:
    """Complement of a random chordal graph, with an optimal colouring.

    The chordal graph grows by attaching each new vertex to a clique of
    earlier vertices, so n-1, ..., 0 is a perfect elimination order.  Gavril's
    greedy over that order gives a minimum clique cover of the chordal graph:
    a colouring of the complement with chi colours.  Returns the complement's
    edges and each vertex's colour class, 0..chi-1."""
    back: List[Set[int]] = [set() for _ in range(n)]
    later: List[Set[int]] = [set() for _ in range(n)]
    for v in range(1, n):
        if rng.random() < 0.15:
            continue
        clique = {rng.randrange(v)}
        while rng.random() >= 0.5:
            cands = [u for u in range(v) if u not in clique and clique <= back[u] | later[u]]
            if not cands:
                break
            clique.add(rng.choice(cands))
        back[v] = clique
        for u in clique:
            later[u].add(v)
    owner = [-1] * n
    cliques = 0
    for v in reversed(range(n)):
        if owner[v] == -1:
            owner[v] = cliques
            for u in back[v]:
                if owner[u] == -1:
                    owner[u] = cliques
            cliques += 1
    chordal = {(u, v) for v in range(n) for u in back[v]}
    return [e for e in combinations(range(n), 2) if e not in chordal], owner


def adjacency(n: int, edges: Edges) -> List[Set[int]]:
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def er(n: int, p: float, rng: random.Random) -> Edges:
    return [e for e in combinations(range(n), 2) if rng.random() < p]


def er_with_hole(n: int, p: float, hole: int, rng: random.Random) -> Edges:
    """Erdos-Renyi sample with an induced cycle of length ``hole`` planted on
    vertices 0..hole-1, so the graph is never weakly chordal (hole >= 5)."""
    ring = set(cycle(hole))
    edges = []
    for u, v in combinations(range(n), 2):
        if (u, v) in ring if v < hole else rng.random() < p:
            edges.append((u, v))
    return edges


def gk(k: int) -> Edges:
    """The four-clique family G_k with the vertex ids the package uses:
    hubs x=0, y=1, then blocks u, v, w, z of k-1 vertices each."""
    s = k - 1
    u, v, w, z = (list(range(2 + i * s, 2 + (i + 1) * s)) for i in range(4))
    edges = []
    for block in (u, v, w, z):
        edges.extend(combinations(block, 2))
    for hub in (0, 1):
        edges.extend((hub, t) for t in u + v)
    for hub in (u[0], v[0]):
        edges.extend((hub, t) for t in w + z)
    edges += [(0, z[0]), (1, w[0])]
    return _norm(edges)


def count_colourings(n: int, edges: Edges, k: int, limit: float = math.inf) -> int:
    """Number of proper k-colourings, by backtracking in vertex order; the
    count stops early once it exceeds ``limit``."""
    lower = [[] for _ in range(n)]
    for u, v in edges:
        lower[v].append(u)
    assign = [0] * n

    def rec(i: int, found: int) -> int:
        if i == n:
            return found + 1
        taken = {assign[u] for u in lower[i]}
        for c in range(k):
            if c not in taken and found <= limit:
                assign[i] = c
                found = rec(i + 1, found)
        return found

    return rec(0, 0)


def random_walk(
    adj: List[Set[int]], start: List[int], k: int, steps: int, rng: random.Random
) -> List[int]:
    """A proper colouring reached from ``start`` by random single switches."""
    cur = list(start)
    n = len(cur)
    for _ in range(steps):
        v = rng.randrange(n)
        free = [c for c in range(k) if c != cur[v] and all(cur[u] != c for u in adj[v])]
        if free:
            cur[v] = rng.choice(free)
    return cur


def bfs_order(adj: List[Set[int]]) -> List[int]:
    seen = [False] * len(adj)
    order = []
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in sorted(adj[v]):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def sparse_colouring(adj: List[Set[int]], k: int, rng: random.Random) -> List[int]:
    """Uniform free colour per vertex in BFS order; on trees every vertex then
    sees one coloured neighbour and on cycles at most two, so k >= 3 never
    runs out of colours."""
    col = [-1] * len(adj)
    for v in bfs_order(adj):
        free = [c for c in range(k) if all(col[u] != c for u in adj[v])]
        col[v] = rng.choice(free)
    return col


def colour_classes_to_colouring(owner: List[int], k: int, rng: random.Random) -> List[int]:
    """Map class ids onto distinct palette entries in a seeded order."""
    palette = list(range(k))
    rng.shuffle(palette)
    return [palette[c] for c in owner]


def json_graph(n: int, edges: Edges) -> Dict:
    return {"n": n, "edges": [[u, v] for u, v in edges]}


def dimacs(n: int, edges: Edges) -> str:
    lines = [f"p edge {n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"
