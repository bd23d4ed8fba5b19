"""Graph-class recognition: 2-pairs, holes, weakly chordal, co-chordal,
forbidden patterns, exact chromatic number, and compactness checks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

from .graph import (
    Graph,
    bits,
    complement,
    component_mask,
    is_anticonnected,
    is_clique_mask,
    is_complete,
    mask_of,
)


@dataclass(frozen=True)
class TwoPair:
    """A certified 2-pair: nonadjacent x, y whose common neighbourhood
    separates them."""

    x: int
    y: int
    separator: frozenset
    component_of_x: frozenset
    component_of_y: frozenset


@dataclass(frozen=True)
class HoleWitness:
    cycle: Tuple[int, ...]
    kind: str  # "hole" | "antihole"


@dataclass(frozen=True)
class AnticonnectedProbe:
    t: frozenset
    d_of_t: frozenset


@dataclass(frozen=True)
class CompactnessVerdict:
    compact: bool
    failing_subset: Optional[frozenset] = None


# -- 2-pairs ----------------------------------------------------------------


def _two_pair(g: Graph, x: int, y: int, active: int) -> Optional[TwoPair]:
    """The 2-pair {x, y} of the subgraph induced on ``active``, or None when
    they are not one; x and y must be nonadjacent vertices of ``active``.

    Separator criterion: N(x) & N(y) puts x and y in different components.
    The y-side is searched only once x's component is known to miss y.
    """
    sep = g.adj[x] & g.adj[y] & active
    removed = sep | ~active
    cx = component_mask(g, x, removed=removed)
    if (cx >> y) & 1:
        return None
    cy = component_mask(g, y, removed=removed)
    return TwoPair(
        x,
        y,
        frozenset(bits(sep)),
        frozenset(bits(cx)),
        frozenset(bits(cy)),
    )


def find_two_pairs(g: Graph, active: Optional[int] = None) -> List[TwoPair]:
    """All 2-pairs {x, y} with x < y of the subgraph induced on ``active``
    (default: all of g), in lexicographic order and in the ids of g."""
    if active is None:
        active = g.full_mask
    pairs = []
    for x in bits(active):
        for y in bits(active & ~g.adj[x] & (-1 << (x + 1))):
            pair = _two_pair(g, x, y, active)
            if pair is not None:
                pairs.append(pair)
    return pairs


# -- holes, antiholes and fixed patterns: one chordless-path search -----------


def _chordless(
    adj: List[int], size: int, cycle: bool = False, most: int = 0
) -> Optional[Tuple[int, ...]]:
    """The first induced path on ``size`` vertices or, with ``cycle``, the
    first induced cycle on at least ``size`` (and at most ``most``, if set)
    vertices, under depth-first search in ascending id order.

    A path grows only by a neighbour of its last vertex that lies outside the
    closed neighbourhoods of its other vertices.  In cycle mode the start is
    the cycle's least vertex: only vertices above it are used, it is excluded
    from that rule, and a neighbour of it closes the cycle.  While a close
    would still be too short, the start's neighbours leave the candidates,
    since extending through one would add a chord.  A start with fewer than
    two neighbours above it is skipped: it cannot be the least vertex of a
    cycle.  The search runs on an explicit stack of candidate bitmasks, so
    any path length works.
    """
    for start in range(len(adj)):
        above = -1 << (start + 1) if cycle else -1
        if cycle and (adj[start] & above).bit_count() < 2:
            continue
        ring = adj[start] if cycle else 0  # the vertices that close a cycle
        path = [start]
        barred = [0]  # per depth: closed neighbourhoods the next vertex avoids
        stack = [adj[start] & above]  # per depth: candidates not yet tried
        while stack:
            mask = stack[-1]
            if not mask:
                stack.pop()
                path.pop()
                barred.pop()
                continue
            stack[-1] = mask & (mask - 1)
            w = (mask & -mask).bit_length() - 1
            k = len(path)
            if k > 1 and (ring >> w) & 1:
                return (*path, w)
            last = path[-1]
            rule = barred[-1]
            if k > 1 or not cycle:
                rule |= adj[last] | 1 << last
            k += 1
            if k == size and not cycle:
                return (*path, w)
            nxt = adj[w] & above & ~rule
            if k + 1 < size:
                nxt &= ~ring
            elif k + 1 == most:
                nxt &= ring
            path.append(w)
            barred.append(rule)
            stack.append(nxt)
    return None


def find_hole(g: Graph) -> Optional[HoleWitness]:
    cycle = _chordless(g.adj, 5, cycle=True)
    return HoleWitness(cycle, "hole") if cycle else None


def find_antihole(g: Graph) -> Optional[HoleWitness]:
    cycle = _chordless(complement(g).adj, 5, cycle=True)
    return HoleWitness(cycle, "antihole") if cycle else None


def is_weakly_chordal(g: Graph) -> bool:
    return find_hole(g) is None and find_antihole(g) is None


def is_co_chordal(g: Graph) -> bool:
    """The complement is chordal: it has no induced cycle of length >= 4.

    Equivalently g is (2K2, antihole)-free, since an induced 2K2 of g is an
    induced C4 of the complement and an antihole of g is a hole of it.
    """
    return _chordless(complement(g).adj, 4, cycle=True) is None


def contains_induced(g: Graph, pattern: str) -> Optional[frozenset]:
    """A vertex set inducing the named pattern, or None.

    The patterns are "p5", "p5_complement" (an induced P5 of the complement)
    and "c5".  The set is deterministic, but not in general the
    lexicographically first one.
    """
    if pattern == "p5":
        hit = _chordless(g.adj, 5)
    elif pattern == "p5_complement":
        hit = _chordless(complement(g).adj, 5)
    elif pattern == "c5":
        hit = _chordless(g.adj, 5, cycle=True, most=5)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    return frozenset(hit) if hit else None


# -- chromatic number ---------------------------------------------------------


def find_k_colouring(g: Graph, k: int) -> Optional[Tuple[int, ...]]:
    """A proper k-colouring via saturation-ordered backtracking, or None.

    The next vertex is the uncoloured one of most distinct neighbour colours,
    then highest degree, then least id; its colours are tried in ascending
    order, at most one of them not used yet.  The search runs on an explicit
    stack of (vertex, colour, colours used before it, neighbours whose
    saturation it raised), so any path length works."""
    n = g.n
    if n == 0:
        return ()
    if k <= 0:
        return None
    colour = [-1] * n
    sat = [0] * n  # bitmask of colours on coloured neighbours
    degree = [g.degree(v) for v in range(n)]

    def pick() -> int:
        best = -1
        best_key = None
        for v in range(n):
            if colour[v] != -1:
                continue
            key = (sat[v].bit_count(), degree[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        return best

    stack: List[Tuple[int, int, int, List[int]]] = []
    v, c, used = pick(), 0, 0  # the vertex to colour, its next colour to try
    while True:
        limit = min(k, used + 1)  # at most one brand-new colour
        while c < limit and (sat[v] >> c) & 1:
            c += 1
        if c < limit:
            colour[v] = c
            touched = []
            for u in bits(g.adj[v]):
                if not (sat[u] >> c) & 1:
                    sat[u] |= 1 << c
                    touched.append(u)
            stack.append((v, c, used, touched))
            if len(stack) == n:
                return tuple(colour)
            v, c, used = pick(), 0, max(used, c + 1)
            continue
        if not stack:
            return None
        v, c, used, touched = stack.pop()
        colour[v] = -1
        for u in touched:
            sat[u] &= ~(1 << c)
        c += 1


def chromatic_number(g: Graph) -> int:
    """Least k admitting a proper k-colouring; exact backtracking search.
    k = n always admits one."""
    if g.n == 0:
        return 0
    return next(k for k in range(1, g.n + 1) if find_k_colouring(g, k) is not None)


# -- compactness --------------------------------------------------------------


def qualifying_pair_in(
    g: Graph, active: int
) -> Optional[Tuple[int, int, int, int, str]]:
    """The first qualifying 2-pair of the subgraph induced on ``active``.

    Returns ``(x, y, separator, x_side, tag)`` with the last three as
    bitmasks, or None when no oriented pair qualifies (also when ``active``
    is a clique).  Tag "ii" is the least (x, y) in lexicographic order with
    x, y nonadjacent and N(x) contained in N(y); such a pair is always a
    2-pair, because removing N(x) = N(x) & N(y) isolates x.  Only when no
    such pair exists, tag "iii" is the least (x, y) whose x-side plus
    separator is a clique of at most three vertices.  That union is then
    exactly N[x], so x has degree at most 2, and the x-side stays inside N[x]
    iff y is adjacent to every neighbour of x with a neighbour outside N[x].
    The separator of a "iii" pair has at most one vertex: two would make it
    all of N(x), which is case "ii".
    """
    adj = g.adj
    for x in bits(active):
        nx = adj[x] & active
        cand = active & ~nx & ~(1 << x)
        # test the candidates y one by one, or intersect the neighbourhoods
        # of N(x), whichever set is smaller (dense versus sparse graphs)
        if cand.bit_count() < nx.bit_count():
            for y in bits(cand):
                if not nx & ~adj[y]:
                    return x, y, nx, 1 << x, "ii"
            continue
        for u in bits(nx):
            cand &= adj[u]
            if not cand:
                break
        if cand:
            return x, (cand & -cand).bit_length() - 1, nx, 1 << x, "ii"
    for x in bits(active):
        nx = adj[x] & active
        closed = nx | (1 << x)
        if nx.bit_count() > 2 or not is_clique_mask(g, closed):
            continue
        cand = active & ~closed
        for u in bits(nx):
            if adj[u] & active & ~closed:
                cand &= adj[u]
        if cand:
            y = (cand & -cand).bit_length() - 1
            sep = nx & adj[y]
            return x, y, sep, closed & ~sep, "iii"
    return None


def qualifying_two_pair(g: Graph) -> Optional[Tuple[TwoPair, str]]:
    """qualifying_pair_in on the whole graph, as a TwoPair and its tag;
    undefined (ValueError) on complete graphs."""
    if is_complete(g):
        raise ValueError("qualifying_two_pair is undefined on complete graphs")
    found = qualifying_pair_in(g, g.full_mask)
    if found is None:
        return None
    x, y, _, _, tag = found
    return _two_pair(g, x, y, g.full_mask), tag


def subgraph_passes_compactness(g: Graph, active: Optional[int] = None) -> bool:
    """Definition check for the subgraph induced on ``active`` (default: all
    of g): complete, or has a qualifying 2-pair."""
    if active is None:
        active = g.full_mask
    return is_clique_mask(g, active) or qualifying_pair_in(g, active) is not None


def is_compact_bruteforce(g: Graph, limit: int = 12) -> CompactnessVerdict:
    """Check every nonempty induced subgraph against the compactness cases.

    Subsets are enumerated in increasing size, then lexicographically, so a
    failing witness is the least minimum-size one.
    """
    if g.n > limit:
        raise ValueError(f"n={g.n} exceeds the brute-force limit {limit}")
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            if not subgraph_passes_compactness(g, mask_of(subset)):
                return CompactnessVerdict(False, failing_subset=frozenset(subset))
    return CompactnessVerdict(True)


# -- the anticonnected-set 2-pair finder --------------------------------------


def two_pair_via_anticonnected_set(
    g: Graph, a: int, m: int, b: int
) -> Tuple[AnticonnectedProbe, TwoPair]:
    """Grow an anticonnected set T from the centre of the chordless path
    a-m-b until maximal, then extract a 2-pair of g from the T-complete set.

    It reproduces the paper's anticonnected-set argument for the existence
    of a 2-pair; the library finds 2-pairs by the separator criterion.
    """
    if a == b or g.has_edge(a, b):
        raise ValueError("a and b must be distinct and nonadjacent")
    if not (g.has_edge(a, m) and g.has_edge(b, m)):
        raise ValueError("m must be adjacent to both a and b")
    if not is_weakly_chordal(g):
        raise ValueError("input graph must be weakly chordal")

    def t_complete(t_mask: int) -> int:
        d = g.full_mask  # no vertex is its own neighbour, so none of T stays
        for t in bits(t_mask):
            d &= g.adj[t]
        return d

    t_mask = 1 << m
    grown = True
    while grown:
        grown = False
        for t in bits(g.full_mask & ~t_mask):
            cand = t_mask | (1 << t)
            if not is_clique_mask(g, t_complete(cand)) and is_anticonnected(g, bits(cand)):
                t_mask = cand
                grown = True
                break

    d_mask = t_complete(t_mask)
    pairs = find_two_pairs(g, d_mask)
    if not pairs:
        raise RuntimeError("no 2-pair found in the T-complete set")
    pair = _two_pair(g, pairs[0].x, pairs[0].y, g.full_mask)
    if pair is None:
        raise RuntimeError("extracted pair is not a 2-pair of the host graph")
    probe = AnticonnectedProbe(frozenset(bits(t_mask)), frozenset(bits(d_mask)))
    return probe, pair
