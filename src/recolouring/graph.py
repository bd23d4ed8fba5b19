"""Simple undirected graphs on dense integer ids, with bitset adjacency.

Every algorithm in the package operates on these graphs.  Adjacency is one
Python int per vertex used as a bitset, so membership tests and
neighbourhood intersections are single integer operations.  Graphs are
immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for v in ids:
        m |= 1 << v
    return m


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Vertex ids are dense integers; labels are cosmetic metadata only.
    The empty graph (n = 0) is legal everywhere and counts as complete.
    """

    __slots__ = ("n", "adj", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]] = (),
        labels: Optional[Dict[int, str]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if (adj[u] >> v) & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = adj
        self.labels = dict(labels) if labels else {}
        for v in self.labels:
            if not (0 <= v < n):
                raise ValueError(f"label id {v} out of range")

    @classmethod
    def _from_rows(cls, n: int, rows: List[int], labels: Dict[int, str]) -> "Graph":
        """Wrap finished bitset rows; the caller has already checked them."""
        g = cls.__new__(cls)
        g.n, g.adj, g.labels = n, rows, labels
        return g

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbours(self, v: int) -> List[int]:
        return list(bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> List[Tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u]):
                if u < v:
                    out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


# -- structural operations ------------------------------------------------


def complement(g: Graph) -> Graph:
    """The graph with edge {u,v} exactly when g has none; labels preserved."""
    full = g.full_mask
    rows = [full ^ row ^ (1 << v) for v, row in enumerate(g.adj)]
    return Graph._from_rows(g.n, rows, dict(g.labels))


def induced_subgraph(g: Graph, s: Iterable[int]) -> Tuple[Graph, Dict[int, int]]:
    """Induced subgraph on s plus the order-preserving old-id -> new-id map."""
    keep = sorted(set(s))
    for v in keep:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    mapping = {old: new for new, old in enumerate(keep)}
    kept = mask_of(keep)
    rows = [mask_of(mapping[u] for u in bits(g.adj[v] & kept)) for v in keep]
    labels = {mapping[v]: g.labels[v] for v in keep if v in g.labels}
    return Graph._from_rows(len(keep), rows, labels), mapping


def component_mask(g: Graph, start: int, removed: int = 0) -> int:
    """Bitmask of the component of ``start`` in g minus the ``removed`` mask."""
    comp = 1 << start
    frontier = comp
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~removed & ~comp
        comp |= frontier
    return comp


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True iff all pairs in s are adjacent; vacuous for |s| <= 1."""
    smask = mask_of(s)
    if smask & ~g.full_mask:
        raise ValueError("vertex out of range")
    return is_clique_mask(g, smask)


def is_clique_mask(g: Graph, mask: int) -> bool:
    """is_clique on a bitmask of vertices, which must lie in range."""
    for v in bits(mask):
        if (mask ^ (1 << v)) & ~g.adj[v]:
            return False
    return True


def is_complete(g: Graph) -> bool:
    return is_clique(g, range(g.n))


def is_anticonnected(g: Graph, s: Iterable[int]) -> bool:
    """True iff s induces a graph whose complement is connected: the
    component of s's least vertex in the complement, restricted to s, is s.

    With ``two_pair_via_anticonnected_set``, its one caller, it reproduces
    the paper's anticonnected-set argument."""
    smask = mask_of(s)
    if not smask:
        raise ValueError("anticonnectedness is undefined for the empty set")
    if smask & ~g.full_mask:
        raise ValueError("vertex out of range")
    start = (smask & -smask).bit_length() - 1
    return component_mask(complement(g), start, removed=~smask) == smask
