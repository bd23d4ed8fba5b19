"""Exhaustive exploration of the reconfiguration graph R_k(G): enumerate all
proper k-colourings, materialize single-switch adjacency, and report
connectivity, diameters, and frozen colourings."""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .graph import Graph, bits

DEFAULT_CAP = 16_000_000
DEFAULT_DIAMETER_CAP = 50_000


class CapacityError(RuntimeError):
    """The requested enumeration exceeds the configured memory cap."""


@dataclass(frozen=True)
class Colouring:
    """A proper assignment of palette entries 0..k-1 to all vertices."""

    assignment: Tuple[int, ...]
    k: int

    def __getitem__(self, v: int) -> int:
        return self.assignment[v]

    def __len__(self) -> int:
        return len(self.assignment)


def is_proper(g: Graph, c: Colouring) -> bool:
    a = c.assignment
    if len(a) != g.n or any(not 0 <= x < c.k for x in a):
        return False
    return all(a[u] != a[v] for u, v in g.edges())


def enumerate_colourings(g: Graph, k: int, cap: int = DEFAULT_CAP) -> List[Colouring]:
    """All proper k-colourings in lexicographic order of assignment arrays."""
    if k < 0:
        raise ValueError("palette size must be non-negative")
    n = g.n
    lower = [[u for u in bits(g.adj[v]) if u < v] for v in range(n)]
    out: List[Colouring] = []
    assign = [0] * n

    def rec(i: int) -> None:
        if i == n:
            if len(out) >= cap:
                raise CapacityError(
                    f"more than {cap} proper {k}-colourings; raise the cap"
                )
            out.append(Colouring(tuple(assign), k))
            return
        taken = {assign[u] for u in lower[i]}
        for c in range(k):
            if c in taken:
                continue
            assign[i] = c
            rec(i + 1)

    rec(0)
    return out


@dataclass
class ReconfigGraph:
    """The reconfiguration graph over the enumerated colourings."""

    palette: int
    nodes: List[Colouring]
    index: Dict[Tuple[int, ...], int]
    adjacency: List[List[int]]
    component_id: List[int]
    components: List[List[int]] = field(default_factory=list)

    def node_count(self) -> int:
        return len(self.nodes)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])


def build_reconfiguration_graph(
    g: Graph, k: int, cap: int = DEFAULT_CAP
) -> ReconfigGraph:
    nodes = enumerate_colourings(g, k, cap=cap)
    index = {c.assignment: i for i, c in enumerate(nodes)}
    n = g.n
    nbr_lists = [list(bits(g.adj[v])) for v in range(n)]
    adjacency: List[List[int]] = []
    for c in nodes:
        a = c.assignment
        row = []
        for v in range(n):
            forbidden = {a[u] for u in nbr_lists[v]}
            for col in range(k):
                if col == a[v] or col in forbidden:
                    continue
                row.append(index[a[:v] + (col,) + a[v + 1 :]])
        row.sort()
        adjacency.append(row)

    component_id = [-1] * len(nodes)
    components: List[List[int]] = []
    for start in range(len(nodes)):
        if component_id[start] != -1:
            continue
        cid = len(components)
        queue = deque([start])
        component_id[start] = cid
        members = [start]
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if component_id[w] == -1:
                    component_id[w] = cid
                    members.append(w)
                    queue.append(w)
        members.sort()
        components.append(members)
    return ReconfigGraph(k, nodes, index, adjacency, component_id, components)


@dataclass
class ExplorationSummary:
    palette: int
    colouring_count: int
    component_count: int
    component_sizes: List[int]
    component_diameters: List[Optional[int]]  # None when size exceeds the cap
    diameter_capped: List[bool]
    frozen_colouring_indices: List[int]
    diameter: Optional[int]  # overall, when connected and not capped
    # BFS runs for the diameters: one per distinct canonical form of the
    # members of uncapped components
    eccentricity_bfs_runs: int = 0


def _canonical_nodes(r: ReconfigGraph) -> List[int]:
    """Map each node to the node of its colouring with colours renamed in
    order of first use.  The canonical colouring uses no more colours than
    the original, so it is always a node of ``r``."""
    out = []
    for c in r.nodes:
        rename: Dict[int, int] = {}
        canonical = tuple(rename.setdefault(x, len(rename)) for x in c.assignment)
        out.append(r.index[canonical])
    return out


def _eccentricity(adjacency: List[List[int]], src: int, dist: List[int]) -> int:
    """Eccentricity of ``src`` within its component, by a level-by-level BFS
    on ``dist`` (all -1 on entry and on return)."""
    dist[src] = 0
    frontier = [src]
    touched = [src]
    depth = 0
    while True:
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = depth + 1
                    nxt.append(w)
        if not nxt:
            break
        touched += nxt
        frontier = nxt
        depth += 1
    for v in touched:
        dist[v] = -1
    return depth


def summarize(
    r: ReconfigGraph,
    diameter_cap: int = DEFAULT_DIAMETER_CAP,
    compute_diameters: bool = True,
) -> ExplorationSummary:
    """Component sizes, frozen colourings and, optionally, exact component
    diameters.

    Renaming colours is an automorphism of R_k that maps each component C
    onto a component of the same size and diameter, and it maps a node to
    one of the same eccentricity.  So diam(C) is the largest eccentricity of
    the canonical forms of C's members, and one BFS per canonical colouring
    serves every component.
    """
    sizes = [len(m) for m in r.components]
    capped = [compute_diameters and s > diameter_cap for s in sizes]
    diameters: List[Optional[int]] = [None] * len(sizes)
    todo = [i for i, s in enumerate(sizes) if compute_diameters and s <= diameter_cap]
    ecc: Dict[int, int] = {}  # canonical node -> eccentricity
    if todo:
        canonical = _canonical_nodes(r)
        dist = [-1] * r.node_count()
        for i in todo:
            roots = {canonical[u] for u in r.components[i]}
            for v in roots - ecc.keys():
                ecc[v] = _eccentricity(r.adjacency, v, dist)
            diameters[i] = max(ecc[v] for v in roots)
    frozen = [i for i in range(r.node_count()) if not r.adjacency[i]]
    overall = diameters[0] if len(r.components) == 1 else None
    return ExplorationSummary(
        palette=r.palette,
        colouring_count=r.node_count(),
        component_count=len(r.components),
        component_sizes=sizes,
        component_diameters=diameters,
        diameter_capped=capped,
        frozen_colouring_indices=frozen,
        diameter=overall,
        eccentricity_bfs_runs=len(ecc),
    )


def is_frozen(g: Graph, c: Colouring) -> bool:
    """True iff every closed neighbourhood exhibits the whole palette."""
    if not is_proper(g, c):
        raise ValueError("colouring is not proper")
    a = c.assignment
    for v in range(g.n):
        seen = 1 << a[v]
        for u in bits(g.adj[v]):
            seen |= 1 << a[u]
        if seen != (1 << c.k) - 1:
            return False
    return True


@dataclass
class FrozenSearchResult:
    colourings: List[Colouring]
    exhausted: bool  # False when the time budget ran out first


def find_frozen_colourings(
    g: Graph, k: int, budget_seconds: float = 60.0
) -> FrozenSearchResult:
    """Backtracking search for frozen k-colourings.

    A branch is pruned as soon as some vertex can no longer see the whole
    palette in its closed neighbourhood.  Exhaustive within the budget.
    """
    if k < 0:
        raise ValueError("palette size must be non-negative")
    n = g.n
    full = (1 << k) - 1
    closed = [g.adj[v] | (1 << v) for v in range(n)]
    if any(closed[v].bit_count() < k for v in range(n)):
        return FrozenSearchResult([], True)
    affected = [[u for u in range(n) if (closed[u] >> v) & 1] for v in range(n)]

    colour = [-1] * n
    seen = [0] * n  # palette bits present among assigned closed neighbours
    remaining = [closed[v].bit_count() for v in range(n)]
    found: List[Colouring] = []
    deadline = time.monotonic() + budget_seconds
    ticks = 0

    class _Timeout(Exception):
        pass

    def rec(i: int) -> None:
        nonlocal ticks
        ticks += 1
        if ticks % 2048 == 0 and time.monotonic() > deadline:
            raise _Timeout
        if i == n:
            found.append(Colouring(tuple(colour), k))
            return
        nbr_cols = 0
        for u in bits(g.adj[i]):
            if colour[u] != -1:
                nbr_cols |= 1 << colour[u]
        for c in range(k):
            if (nbr_cols >> c) & 1:
                continue
            colour[i] = c
            undo = []
            ok = True
            for v in affected[i]:
                undo.append((v, seen[v]))
                seen[v] |= 1 << c
                remaining[v] -= 1
                if (full & ~seen[v]).bit_count() > remaining[v]:
                    ok = False
            if ok:
                rec(i + 1)
            for v, old in reversed(undo):
                seen[v] = old
                remaining[v] += 1
            colour[i] = -1

    exhausted = True
    try:
        rec(0)
    except _Timeout:
        exhausted = False
    return FrozenSearchResult(found, exhausted)
