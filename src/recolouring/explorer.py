"""Exhaustive exploration of the reconfiguration graph R_k(G): enumerate all
proper k-colourings, materialize single-switch adjacency, and report
connectivity, diameters, and frozen colourings."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .graph import Graph, bits

DEFAULT_CAP = 16_000_000
DEFAULT_DIAMETER_CAP = 50_000


class CapacityError(RuntimeError):
    """The requested enumeration or search exceeds the configured cap."""


@dataclass(frozen=True, slots=True)
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
    """All proper k-colourings in lexicographic order of assignment arrays.

    Depth-first on an explicit stack of (vertex, colour) choices: entering a
    vertex pushes its free colours, highest first, so they pop in ascending
    order."""
    if k < 0:
        raise ValueError("palette size must be non-negative")
    n = g.n
    lower = [[u for u in bits(g.adj[v]) if u < v] for v in range(n)]
    out: List[Colouring] = []
    assign = [0] * n
    stack: List[Tuple[int, int]] = []
    i = 0  # the vertex to enter next
    while True:
        if i == n:
            if len(out) >= cap:
                raise CapacityError(
                    f"more than {cap} proper {k}-colourings; raise the cap"
                )
            out.append(Colouring(tuple(assign), k))
        else:
            taken = {assign[u] for u in lower[i]}
            stack.extend([(i, c) for c in range(k - 1, -1, -1) if c not in taken])
        if not stack:
            return out
        v, c = stack.pop()
        assign[v] = c
        i = v + 1


@dataclass
class ReconfigGraph:
    """The reconfiguration graph over the enumerated colourings."""

    palette: int
    nodes: List[Colouring]
    adjacency: List[List[int]]
    components: List[List[int]] = field(default_factory=list)

    def node_count(self) -> int:
        return len(self.nodes)


def neighbour_assignments(
    a: Tuple[int, ...], nbrs: List[List[int]], k: int
) -> List[Tuple[int, ...]]:
    """The neighbours of the proper colouring ``a`` in R_k: ``a`` with one
    vertex v switched to a colour that neither v nor any of ``nbrs[v]`` has."""
    out = []
    for v in range(len(a)):
        forbidden = {a[u] for u in nbrs[v]}
        for col in range(k):
            if col == a[v] or col in forbidden:
                continue
            out.append(a[:v] + (col,) + a[v + 1 :])
    return out


def build_reconfiguration_graph(
    g: Graph, k: int, cap: int = DEFAULT_CAP
) -> ReconfigGraph:
    nodes = enumerate_colourings(g, k, cap=cap)
    index = {c.assignment: i for i, c in enumerate(nodes)}
    nbrs = [list(bits(g.adj[v])) for v in range(g.n)]
    adjacency = [
        sorted([index[b] for b in neighbour_assignments(c.assignment, nbrs, k)])
        for c in nodes
    ]
    dist = [-1] * len(nodes)  # set once a node is placed in a component
    components = [
        sorted(_bfs_order(adjacency, s, dist)) for s in range(len(nodes)) if dist[s] < 0
    ]
    return ReconfigGraph(k, nodes, adjacency, components)


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
    the original, so it is always a node of ``r``, found by bisection in the
    lexicographic node order."""
    key = attrgetter("assignment")
    out = []
    for c in r.nodes:
        rename: Dict[int, int] = {}
        canonical = tuple(rename.setdefault(x, len(rename)) for x in c.assignment)
        out.append(bisect_left(r.nodes, canonical, key=key))
    return out


def _bfs_order(adjacency: List[List[int]], src: int, dist: List[int]) -> List[int]:
    """The nodes reachable from ``src``, in BFS order, with ``dist`` set to
    their distance from ``src``; ``dist`` must be -1 on all of them on entry."""
    dist[src] = 0
    order = [src]
    for u in order:
        d = dist[u] + 1
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = d
                order.append(w)
    return order


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
                order = _bfs_order(r.adjacency, v, dist)
                ecc[v] = dist[order[-1]]
                for u in order:
                    dist[u] = -1
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
