"""Reference implementations that the library's fast paths are tested against.

These are the library's earlier certificate engine, sequence emission and
component diameter, kept unchanged apart from the names of the emission and
diameter functions:
- ``qualifying_two_pair`` scans every 2-pair of the graph, found by a
  separator BFS per vertex pair, and keeps the first qualifying one;
- ``find_elimination_certificate`` relabels the induced subgraph of the
  remaining vertices at every stage and runs that scan on it;
- ``recolour_compact_recursive`` checks the palette against the exact
  chromatic number and emits the sequence with one recursion level per
  certificate event;
- ``component_diameter`` is the explorer's earlier exact diameter: a BFS
  from every member of the component, with dict distances and a member set;
- ``canonical_eccentricities`` is the per-root loop that ``summarize`` ran
  before its roots shared bit-parallel sweeps: one ``_bfs_order`` per
  distinct canonical colouring, here over every component;
- ``contains_induced`` is the earlier forbidden-pattern scan: each subset
  with the pattern's edge count and degree sequence is matched against every
  permutation of the pattern (``induces_pattern``), so it returns the
  lexicographically first witness set;
- ``_find_induced_cycle`` is the earlier hole search, one recursion level
  per path vertex, behind ``find_hole``, ``find_antihole`` and
  ``is_co_chordal`` before they shared the library's iterative
  chordless-path search;
- ``is_co_chordal`` is the earlier (2K2, antihole) route to co-chordality,
  the library's dual of testing the complement for an induced cycle of
  length >= 4;
- ``has_long_chordless_path`` is the exhaustive induced-path test behind the
  path definition of a 2-pair (no induced x-y path of length >= 3);
- ``enumerate_colourings`` is the earlier enumeration, one recursion level
  per vertex;
- ``build_reconfiguration_graph`` is the earlier construction of R_k: a
  dict from assignment tuples to node indices, a component id per node and
  a deque BFS per component, returned as an ``IndexedReconfigGraph``;
- ``bfs_distance`` is the earlier distance in R_k: it builds all of R_k (or
  takes a built one) and runs a dict BFS on it;
- ``neighbour_assignments`` is the earlier edge rule of R_k on assignment
  tuples, and ``implicit_bfs_distance`` the one-directional BFS over
  assignment tuples that replaced ``bfs_distance`` before the library's
  search became bidirectional over mixed-radix codes;
- ``find_k_colouring`` is the earlier saturation-ordered colouring search,
  one recursion level per coloured vertex;
- ``find_frozen_colourings`` (with ``FrozenSearchResult``) is the budgeted
  backtracking search for frozen colourings that ``generate_gk`` ran before
  its frozen colouring had a closed form;
- ``complement`` is the earlier complement, built from a loop over all
  vertex pairs; the oracles here use it in place of the library's.

``RecolourStep`` is the library's earlier step object, kept here as a
namedtuple: it compares equal to the library's ``(vertex, colour)`` pairs.
"""

from __future__ import annotations

import time
from collections import deque, namedtuple
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Dict, List, Optional, Tuple

from recolouring.explorer import (
    DEFAULT_CAP,
    CapacityError,
    Colouring,
    ReconfigGraph,
    _bfs_order,
    _canonical_nodes,
    is_proper,
)
from recolouring.graph import (
    Graph,
    bits,
    component_mask,
    induced_subgraph,
    is_clique,
    is_complete,
)
from recolouring.recognition import (
    TwoPair,
    _two_pair,
    chromatic_number,
    find_two_pairs,
)
from recolouring.recolour import (
    CertificateError,
    CliqueComponentRemoval,
    CompleteBase,
    EliminationCertificate,
    Event,
    PairRemoval,
    PaletteError,
    RecolourSequence,
    TriangleRemoval,
    _least_colour_outside,
    recolour_complete,
)

RecolourStep = namedtuple("RecolourStep", "vertex new_colour")


def complement(g: Graph) -> Graph:
    """The graph with edge {u,v} exactly when g has none; labels preserved."""
    edges = [
        (u, v)
        for u, v in combinations(range(g.n), 2)
        if not g.has_edge(u, v)
    ]
    return Graph(g.n, edges, labels=g.labels)


def qualifying_two_pair(g: Graph) -> Optional[Tuple[TwoPair, str]]:
    """First 2-pair orientation satisfying the nested-neighbourhood condition,
    else the first whose x-side plus separator is a clique of at most three
    vertices.  Oriented pairs are scanned in (x, y) lexicographic order."""
    if is_complete(g):
        raise ValueError("qualifying_two_pair is undefined on complete graphs")
    oriented = []
    for p in find_two_pairs(g):
        oriented.append((p.x, p.y))
        oriented.append((p.y, p.x))
    oriented.sort()
    for x, y in oriented:
        if g.adj[x] & ~g.adj[y] == 0:
            return _two_pair(g, x, y, g.full_mask), "ii"
    for x, y in oriented:
        sep = g.adj[x] & g.adj[y]
        cx = component_mask(g, x, removed=sep)
        union = cx | sep
        if union.bit_count() <= 3 and is_clique(g, bits(union)):
            return _two_pair(g, x, y, g.full_mask), "iii"
    return None


def find_elimination_certificate(g: Graph) -> Optional[EliminationCertificate]:
    """Greedy elimination per the compactness cases; None if some stage has no
    qualifying 2-pair (the graph is then not compact)."""
    active = set(range(g.n))
    events: List[Event] = []
    while True:
        sub, fwd = induced_subgraph(g, active)
        inv = {new: old for old, new in fwd.items()}
        if is_complete(sub):
            events.append(CompleteBase(tuple(sorted(active))))
            return EliminationCertificate(events)
        found = qualifying_two_pair(sub)
        if found is None:
            return None
        pair, tag = found
        x, y = inv[pair.x], inv[pair.y]
        sep = {inv[v] for v in pair.separator}
        cx = {inv[v] for v in pair.component_of_x}
        if tag == "ii" or len(sep) == 2:
            # a two-vertex separator forces C_x = {x}, i.e. condition (ii)
            events.append(PairRemoval(x, y))
            active.remove(x)
        elif len(sep) == 1:
            (z,) = sep
            (w,) = cx - {x}
            events.append(TriangleRemoval(x, w, z, y))
            active -= {x, w}
        else:  # empty separator: C_x is a whole clique component
            events.append(CliqueComponentRemoval(tuple(sorted(cx))))
            active -= cx


# -- recursive sequence emission ----------------------------------------------


def recolour_compact_recursive(
    g: Graph, cert: EliminationCertificate, a: Colouring, b: Colouring
) -> RecolourSequence:
    """Produce a recolouring sequence from a to b along the certificate.

    Requires palette >= chromatic number + 1, and >= 4 whenever the
    certificate contains a triangle removal.  Every emitted sequence keeps all
    intermediate colourings proper and recolours each vertex at most 2n times.
    """
    if a.k != b.k:
        raise ValueError("colourings use different palettes")
    p = a.k
    if not (is_proper(g, a) and is_proper(g, b)):
        raise ValueError("input colourings must be proper")
    chi = chromatic_number(g)
    if p < chi + 1:
        raise PaletteError(f"palette {p} < chromatic number + 1 = {chi + 1}")
    if any(isinstance(e, TriangleRemoval) for e in cert.events) and p < 4:
        raise PaletteError("triangle removals require a palette of at least 4")
    if not cert.events or not isinstance(cert.events[-1], CompleteBase):
        raise CertificateError("certificate must end with a complete base")
    if a.assignment == b.assignment:
        return RecolourSequence(a, [], b)

    def active_adj(v: int, active: int) -> int:
        return g.adj[v] & active

    def solve(idx: int, active: int, alpha: List[int], beta: List[int]) -> List[RecolourStep]:
        ev = cert.events[idx]
        if isinstance(ev, CompleteBase):
            remaining = list(ev.remaining)
            if set(bits(active)) != set(remaining):
                raise CertificateError("complete base does not match residual set")
            if not is_clique(g, remaining):
                raise CertificateError("residual set is not a clique")
            m = len(remaining)
            sub_a = Colouring(tuple(alpha[v] for v in remaining), p)
            sub_b = Colouring(tuple(beta[v] for v in remaining), p)
            inner = recolour_complete(m, p, sub_a, sub_b)
            return [RecolourStep(remaining[v], c) for v, c in inner.steps]

        if isinstance(ev, PairRemoval):
            x, y = ev.x, ev.y
            if not ((active >> x) & 1 and (active >> y) & 1):
                raise CertificateError("pair removal names an inactive vertex")
            if g.has_edge(x, y):
                raise CertificateError("pair removal vertices are adjacent")
            if active_adj(x, active) & ~active_adj(y, active):
                raise CertificateError("pair removal lacks nested neighbourhoods")
            alpha2 = list(alpha)
            alpha2[x] = alpha[y]
            beta2 = list(beta)
            beta2[x] = beta[y]
            inner = solve(idx + 1, active & ~(1 << x), alpha2, beta2)
            out: List[RecolourStep] = []
            cur = list(alpha)
            if cur[x] != cur[y]:
                out.append(RecolourStep(x, cur[y]))
                cur[x] = cur[y]
            for s in inner:
                out.append(s)
                cur[s.vertex] = s.new_colour
                if s.vertex == y and cur[x] != s.new_colour:
                    # mirror rule: x copies every switch of y immediately
                    out.append(RecolourStep(x, s.new_colour))
                    cur[x] = s.new_colour
            if cur[x] != beta[x]:
                out.append(RecolourStep(x, beta[x]))
            return out

        if isinstance(ev, TriangleRemoval):
            x, w, z = ev.x, ev.w, ev.z
            for v in (x, w, z):
                if not (active >> v) & 1:
                    raise CertificateError("triangle removal names an inactive vertex")
            if active_adj(x, active) != (1 << w) | (1 << z):
                raise CertificateError("x must be adjacent exactly to w and z")
            if active_adj(w, active) != (1 << x) | (1 << z):
                raise CertificateError("w must be adjacent exactly to x and z")
            inner = solve(idx + 1, active & ~(1 << x) & ~(1 << w), alpha, beta)
            out = []
            cur = list(alpha)
            for s in inner:
                if s.vertex == z:
                    c = s.new_colour
                    if cur[x] == c:
                        t = _least_colour_outside(p, {cur[w], cur[z], c})
                        out.append(RecolourStep(x, t))
                        cur[x] = t
                    elif cur[w] == c:
                        t = _least_colour_outside(p, {cur[x], cur[z], c})
                        out.append(RecolourStep(w, t))
                        cur[w] = t
                out.append(s)
                cur[s.vertex] = s.new_colour
            # final fix-up: x first, vacating w once if it blocks x's target
            if cur[x] != beta[x] and cur[w] == beta[x]:
                t = _least_colour_outside(p, {cur[x], cur[z], beta[x]})
                out.append(RecolourStep(w, t))
                cur[w] = t
            if cur[x] != beta[x]:
                out.append(RecolourStep(x, beta[x]))
                cur[x] = beta[x]
            if cur[w] != beta[w]:
                out.append(RecolourStep(w, beta[w]))
                cur[w] = beta[w]
            return out

        if isinstance(ev, CliqueComponentRemoval):
            verts = list(ev.vertices)
            vmask = 0
            for v in verts:
                if not (active >> v) & 1:
                    raise CertificateError("component removal names an inactive vertex")
                vmask |= 1 << v
            if not is_clique(g, verts):
                raise CertificateError("removed component is not a clique")
            for v in verts:
                if active_adj(v, active) & ~vmask:
                    raise CertificateError("removed clique is not a full component")
            if p < len(verts) + 1:
                raise PaletteError("palette too small for clique component")
            inner = solve(idx + 1, active & ~vmask, alpha, beta)
            sub_a = Colouring(tuple(alpha[v] for v in verts), p)
            sub_b = Colouring(tuple(beta[v] for v in verts), p)
            comp = recolour_complete(len(verts), p, sub_a, sub_b)
            return inner + [RecolourStep(verts[v], c) for v, c in comp.steps]

        raise CertificateError(f"unknown certificate event {ev!r}")

    steps = solve(0, g.full_mask, list(a.assignment), list(b.assignment))
    return RecolourSequence(a, steps, b)


def component_diameter(r: ReconfigGraph, members: List[int]) -> int:
    member_set = set(members)
    best = 0
    for src in members:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in r.adjacency[u]:
                if w in member_set and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        best = max(best, max(dist.values()))
    return best


def canonical_eccentricities(r: ReconfigGraph) -> Dict[int, int]:
    """The eccentricity of the canonical form of every node of ``r``, keyed
    by that canonical node: one BFS per distinct canonical root."""
    ecc: Dict[int, int] = {}  # canonical node -> eccentricity
    canonical = _canonical_nodes(r)
    dist = [-1] * r.node_count()
    for members in r.components:
        roots = {canonical[u] for u in members}
        for v in roots - ecc.keys():
            order = _bfs_order(r.adjacency, v, dist)
            ecc[v] = dist[order[-1]]
            for u in order:
                dist[u] = -1
    return ecc


def _find_induced_cycle(g: Graph, min_len: int) -> Optional[Tuple[int, ...]]:
    """Least induced cycle of length >= min_len under ascending-id DFS, if any.

    Paths are grown with the cycle's smallest vertex first, so the search is
    deterministic and each cycle is considered from a canonical rotation.
    """

    def extend(v0: int, path: List[int], used: int) -> Optional[Tuple[int, ...]]:
        last = path[-1]
        interior = used & ~(1 << v0) & ~(1 << last)
        for w in bits(g.adj[last] & ~used):
            if w < v0:
                continue  # v0 is canonically the smallest cycle vertex
            if g.adj[w] & interior:
                continue
            if len(path) >= 2 and (g.adj[w] >> v0) & 1:
                if len(path) + 1 >= min_len:
                    return tuple(path) + (w,)
                continue  # closing now is too short; extending adds a chord
            path.append(w)
            hit = extend(v0, path, used | (1 << w))
            if hit:
                return hit
            path.pop()
        return None

    for v0 in range(g.n):
        hit = extend(v0, [v0], 1 << v0)
        if hit:
            return hit
    return None


def named_patterns() -> Dict[str, Graph]:
    return {
        "p5": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        "p5_complement": complement(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])),
        "c5": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        "2k2": Graph(4, [(0, 1), (2, 3)]),
        "k4": Graph(4, list(combinations(range(4), 2))),
        "diamond": Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    }


PATTERN_GRAPHS = named_patterns()


def induces_pattern(g: Graph, subset: Tuple[int, ...], pattern: Graph) -> bool:
    m = len(subset)
    local = [[g.has_edge(subset[i], subset[j]) for j in range(m)] for i in range(m)]
    degs = sorted(sum(row) for row in local)
    pdegs = sorted(pattern.degree(v) for v in range(m))
    if degs != pdegs:
        return False
    for perm in permutations(range(m)):
        if all(
            local[perm[i]][perm[j]] == pattern.has_edge(i, j)
            for i, j in combinations(range(m), 2)
        ):
            return True
    return False


def contains_induced(g: Graph, pattern: str) -> Optional[frozenset]:
    """First vertex set (lex order) inducing the named pattern, or None."""
    if pattern not in PATTERN_GRAPHS:
        raise ValueError(f"unknown pattern {pattern!r}")
    pat = PATTERN_GRAPHS[pattern]
    target_m = pat.edge_count()
    for subset in combinations(range(g.n), pat.n):
        m = sum(g.has_edge(u, v) for u, v in combinations(subset, 2))
        if m != target_m:
            continue
        if induces_pattern(g, subset, pat):
            return frozenset(subset)
    return None


def is_co_chordal(g: Graph) -> bool:
    """(2K2, antihole)-free."""
    return (
        contains_induced(g, "2k2") is None
        and _find_induced_cycle(complement(g), 5) is None
    )


def has_long_chordless_path(g: Graph, x: int, y: int) -> bool:
    """Exhaustive test for an induced x-y path of length >= 3.

    Exponential; used only as the 2-pair oracle on small graphs.
    """
    if x == y:
        raise ValueError("endpoints must differ")
    if g.has_edge(x, y):
        raise ValueError("endpoints must be nonadjacent")

    def extend(last: int, used: int, length: int) -> bool:
        interior = used ^ (1 << last)
        for w in bits(g.adj[last] & ~used):
            if g.adj[w] & interior:
                continue  # chord back into the path
            if w == y:
                if length + 1 >= 3:
                    return True
                continue
            if extend(w, used | (1 << w), length + 1):
                return True
        return False

    return extend(x, 1 << x, 0)


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
class IndexedReconfigGraph:
    """The earlier shape of the reconfiguration graph."""

    palette: int
    nodes: List[Colouring]
    index: Dict[Tuple[int, ...], int]
    adjacency: List[List[int]]
    component_id: List[int]
    components: List[List[int]] = field(default_factory=list)


def build_reconfiguration_graph(
    g: Graph, k: int, cap: int = DEFAULT_CAP
) -> IndexedReconfigGraph:
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
    return IndexedReconfigGraph(k, nodes, index, adjacency, component_id, components)


def bfs_distance(
    g: Graph,
    k: int,
    a: Colouring,
    b: Colouring,
    cap: int = DEFAULT_CAP,
    reconfig: Optional[IndexedReconfigGraph] = None,
) -> Optional[int]:
    """Exact distance between a and b in R_k(G); None if disconnected."""
    r = reconfig if reconfig is not None else build_reconfiguration_graph(g, k, cap=cap)
    try:
        src = r.index[a.assignment]
        dst = r.index[b.assignment]
    except KeyError:
        raise ValueError("colouring is not a node of the reconfiguration graph")
    if src == dst:
        return 0
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for wnode in r.adjacency[u]:
            if wnode not in dist:
                dist[wnode] = dist[u] + 1
                if wnode == dst:
                    return dist[wnode]
                queue.append(wnode)
    return None


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


def implicit_bfs_distance(
    g: Graph, k: int, a: Colouring, b: Colouring
) -> Optional[int]:
    """Exact distance between a and b in R_k(G); None if disconnected.

    A level-by-level BFS from a over assignment tuples that builds no part of
    R_k beyond the colourings it reaches.  Raises CapacityError once it has
    seen more than DEFAULT_CAP colourings."""
    for c in (a, b):
        if not is_proper(g, Colouring(c.assignment, k)):
            raise ValueError("colouring is not a node of the reconfiguration graph")
    src, dst = a.assignment, b.assignment
    if src == dst:
        return 0
    nbrs = [list(bits(g.adj[v])) for v in range(g.n)]
    seen = {src}
    frontier = [src]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for w in neighbour_assignments(u, nbrs, k):
                if w not in seen:
                    if w == dst:
                        return depth
                    seen.add(w)
                    nxt.append(w)
            if len(seen) > DEFAULT_CAP:
                raise CapacityError(
                    f"bfs_distance reached more than {DEFAULT_CAP} proper "
                    f"{k}-colourings"
                )
        frontier = nxt
    return None


def find_k_colouring(g: Graph, k: int) -> Optional[Tuple[int, ...]]:
    """A proper k-colouring via saturation-ordered backtracking, or None."""
    n = g.n
    if n == 0:
        return ()
    if k <= 0:
        return None
    colour = [-1] * n
    sat = [0] * n  # bitmask of colours on coloured neighbours

    def pick() -> int:
        best = -1
        best_key = None
        for v in range(n):
            if colour[v] != -1:
                continue
            key = (sat[v].bit_count(), g.degree(v), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        return best

    def rec(coloured: int, used: int) -> bool:
        if coloured == n:
            return True
        v = pick()
        limit = min(k, used + 1)  # at most one brand-new colour
        for c in range(limit):
            if (sat[v] >> c) & 1:
                continue
            colour[v] = c
            touched = []
            for u in bits(g.adj[v]):
                if not (sat[u] >> c) & 1:
                    sat[u] |= 1 << c
                    touched.append(u)
            if rec(coloured + 1, max(used, c + 1)):
                return True
            colour[v] = -1
            for u in touched:
                sat[u] &= ~(1 << c)
        return False

    if rec(0, 0):
        return tuple(colour)
    return None


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
