"""Exhaustive exploration of the reconfiguration graph R_k(G): enumerate all
proper k-colourings, materialize single-switch adjacency, and report
connectivity, diameters, and frozen colourings."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graph import Graph, bits

DEFAULT_CAP = 16_000_000
DEFAULT_DIAMETER_CAP = 50_000
# roots per multi-source BFS sweep; each node holds a few ints this wide
SWEEP_WIDTH = 1024


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
    classes: Dict[int, int] = {}  # colour -> bitmask of its vertices
    for v, x in enumerate(a):
        classes[x] = classes.get(x, 0) | 1 << v
    return not any(g.adj[v] & classes[x] for v, x in enumerate(a))


def encode(a: Sequence[int], k: int) -> int:
    """The mixed-radix code of an assignment: base-k digits with vertex 0
    the most significant, so ascending codes are in lexicographic order."""
    code = 0
    for x in a:
        code = code * k + x
    return code


def decode(code: int, n: int, k: int) -> Tuple[int, ...]:
    """The assignment of ``n`` vertices whose mixed-radix code is ``code``."""
    a = [0] * n
    for v in range(n - 1, -1, -1):
        code, a[v] = divmod(code, k)
    return tuple(a)


def enumerate_colourings(g: Graph, k: int, cap: int = DEFAULT_CAP) -> List[int]:
    """All proper k-colourings, as ascending mixed-radix codes (see
    ``encode``), that is in lexicographic order of their assignments.

    Depth-first with one frame per vertex: its current colour and the
    colours of its lower neighbours, taken on entry.  Entering a vertex and
    backtracking into it both move its colour on to the next free one, so
    memory does not grow with k."""
    if k < 0:
        raise ValueError("palette size must be non-negative")
    n = g.n
    lower = [[u for u in bits(g.adj[v]) if u < v] for v in range(n)]
    out: List[int] = []
    assign = [-1] * n  # -1 until the vertex is entered
    taken: List[Set[int]] = [set()] * n  # replaced on entry to each vertex
    prefix = [0] * (n + 1)  # prefix[v]: the code of the colours of vertices < v
    v = 0
    while v >= 0:
        if v == n:
            if len(out) >= cap:
                raise CapacityError(
                    f"more than {cap} proper {k}-colourings; raise the cap"
                )
            out.append(prefix[n])
            v -= 1
            continue
        c = assign[v] + 1
        if not c:
            taken[v] = {assign[u] for u in lower[v]}
        while c in taken[v]:
            c += 1
        if c < k:
            assign[v] = c
            prefix[v + 1] = prefix[v] * k + c
            v += 1
        else:
            assign[v] = -1
            v -= 1
    return out


@dataclass
class ReconfigGraph:
    """The reconfiguration graph over the enumerated colourings of an
    n-vertex graph: node i is the colouring with code ``nodes[i]``."""

    n: int
    palette: int
    nodes: List[int]
    adjacency: List[List[int]]
    components: List[List[int]] = field(default_factory=list)

    def node_count(self) -> int:
        return len(self.nodes)

    def assignment(self, i: int) -> Tuple[int, ...]:
        """The colouring of node i, as an assignment tuple."""
        return decode(self.nodes[i], self.n, self.palette)


def build_reconfiguration_graph(
    g: Graph, k: int, cap: int = DEFAULT_CAP
) -> ReconfigGraph:
    """R_k(G) with sorted adjacency rows.  ``nodes`` holds every proper
    k-colouring, so a switch gives a proper colouring iff its code was
    enumerated, and the rows are found by code lookups alone.  Switching v,
    of weight ``w = k**(n-1-v)``, down by d subtracts ``d*w``, and is a switch
    (no borrow) iff ``code % (k*w) >= d*w``.  The shifts ``(k*w, d*w)`` run
    with v ascending and d descending, so a node's lower neighbours come out
    in ascending order, and its higher neighbours are appended after them in
    ascending order: no row needs sorting."""
    nodes = enumerate_colourings(g, k, cap=cap)
    # every row holding node j shares the index's one int object for j
    index = dict(zip(nodes, range(len(nodes))))
    weights = [k ** (g.n - 1 - v) for v in range(g.n)]
    shifts = [(k * w, d * w) for w in weights for d in range(k - 1, 0, -1)]
    adjacency: List[List[int]] = [[] for _ in nodes]
    for code, j in index.items():
        row = adjacency[j]
        for modulus, drop in shifts:
            if code % modulus >= drop:
                i = index.get(code - drop)
                if i is not None:
                    row.append(i)
                    adjacency[i].append(j)
    dist = [-1] * len(nodes)  # set once a node is placed in a component
    components = [
        sorted(_bfs_order(adjacency, s, dist)) for s in range(len(nodes)) if dist[s] < 0
    ]
    return ReconfigGraph(g.n, k, nodes, adjacency, components)


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
    # BFS sources for the diameters: one per distinct canonical form of the
    # members of uncapped components, carried by ceil(sources / SWEEP_WIDTH)
    # bit-parallel sweeps
    eccentricity_bfs_runs: int = 0


def _canonical_nodes(r: ReconfigGraph) -> List[int]:
    """Map each node to the node of its colouring with colours renamed in
    order of first use.  The canonical colouring uses no more colours than
    the original, so it is always a node of ``r``, found by bisection in the
    ascending codes."""
    out = []
    for i in range(r.node_count()):
        rename: Dict[int, int] = {}
        canonical = [rename.setdefault(x, len(rename)) for x in r.assignment(i)]
        out.append(bisect_left(r.nodes, encode(canonical, r.palette)))
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


def _eccentricities(adjacency: List[List[int]], roots: List[int]) -> Dict[int, int]:
    """The eccentricity of each of the distinct nodes ``roots``, by
    multi-source BFS (Then et al., PVLDB 8(4), 2014).

    A sweep gives each of up to ``SWEEP_WIDTH`` roots one bit.  Every node
    keeps the bits of the roots that have not reached it yet, and each
    level ORs the bits of every frontier node into its neighbours, so one
    pass over the frontier's edges advances all of the sweep's BFSs at
    once.  A root's eccentricity is the last level at which its bit reached
    a new node."""
    ecc: Dict[int, int] = {}
    for start in range(0, len(roots), SWEEP_WIDTH):
        sweep = roots[start : start + SWEEP_WIDTH]
        everyone = (1 << len(sweep)) - 1
        unseen = [everyone] * len(adjacency)  # roots yet to reach each node
        incoming = [0] * len(adjacency)  # bits arriving at each node this level
        frontier = []  # (node, bits of the roots that reached it last level)
        for b, v in enumerate(sweep):
            unseen[v] ^= 1 << b
            frontier.append((v, 1 << b))
        alive = everyone  # roots whose BFS reached a node at this level
        level = 0
        while alive:
            touched = []
            for u, f in frontier:
                for w in adjacency[u]:
                    x = incoming[w]
                    if x:
                        incoming[w] = x | f
                    else:
                        incoming[w] = f
                        touched.append(w)
            frontier = []
            reached = 0
            for w in touched:
                f = incoming[w] & unseen[w]
                incoming[w] = 0
                if f:
                    unseen[w] ^= f
                    frontier.append((w, f))
                    reached |= f
            for b in bits(alive ^ reached):  # reached is a subset of alive
                ecc[sweep[b]] = level
            alive = reached
            level += 1
    return ecc


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
    the canonical forms of C's members, and one BFS source per canonical
    colouring serves every component.  The sources share bit-parallel
    sweeps (see ``_eccentricities``) of up to ``SWEEP_WIDTH`` sources each,
    so memory is about three ``SWEEP_WIDTH``-bit ints per node whatever the
    number of sources.
    """
    sizes = [len(m) for m in r.components]
    capped = [compute_diameters and s > diameter_cap for s in sizes]
    diameters: List[Optional[int]] = [None] * len(sizes)
    todo = [i for i, s in enumerate(sizes) if compute_diameters and s <= diameter_cap]
    ecc: Dict[int, int] = {}  # canonical node -> eccentricity
    if todo:
        canonical = _canonical_nodes(r)
        roots = {canonical[u] for i in todo for u in r.components[i]}
        ecc = _eccentricities(r.adjacency, sorted(roots))
        for i in todo:
            diameters[i] = max(ecc[canonical[u]] for u in r.components[i])
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
