"""Graph-class recognition: 2-pairs, holes, weakly chordal, co-chordal,
forbidden patterns, exact chromatic number, and compactness checks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Dict, FrozenSet, List, Optional, Tuple

from .graph import (
    Graph,
    bits,
    complement,
    component_mask,
    induced_subgraph,
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
    certificate: Optional[object] = None  # EliminationCertificate when compact


# -- 2-pairs ----------------------------------------------------------------


def _make_two_pair(g: Graph, x: int, y: int) -> TwoPair:
    sep = g.adj[x] & g.adj[y]
    cx = component_mask(g, x, removed=sep)
    cy = component_mask(g, y, removed=sep)
    return TwoPair(
        x,
        y,
        frozenset(bits(sep)),
        frozenset(bits(cx)),
        frozenset(bits(cy)),
    )


def is_two_pair(g: Graph, x: int, y: int) -> bool:
    """Separator criterion: N(x) & N(y) puts x and y in different components."""
    if x == y or g.has_edge(x, y):
        return False
    sep = g.adj[x] & g.adj[y]
    return not (component_mask(g, x, removed=sep) >> y) & 1


def find_two_pairs(g: Graph) -> List[TwoPair]:
    """All 2-pairs {x, y} with x < y, in lexicographic order."""
    return [
        _make_two_pair(g, x, y)
        for x in range(g.n)
        for y in range(x + 1, g.n)
        if is_two_pair(g, x, y)
    ]


# -- holes and antiholes ------------------------------------------------------


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


def find_hole(g: Graph) -> Optional[HoleWitness]:
    cycle = _find_induced_cycle(g, 5)
    return HoleWitness(cycle, "hole") if cycle else None


def find_antihole(g: Graph) -> Optional[HoleWitness]:
    cycle = _find_induced_cycle(complement(g), 5)
    return HoleWitness(cycle, "antihole") if cycle else None


def is_weakly_chordal(g: Graph) -> bool:
    return find_hole(g) is None and find_antihole(g) is None


def is_co_chordal(g: Graph) -> bool:
    """The complement is chordal: it has no induced cycle of length >= 4.

    Equivalently g is (2K2, antihole)-free, since an induced 2K2 of g is an
    induced C4 of the complement and an antihole of g is a hole of it.
    """
    return _find_induced_cycle(complement(g), 4) is None


# -- fixed forbidden patterns -------------------------------------------------


def _labelled_copies(pattern: Graph) -> Tuple[int, FrozenSet[int]]:
    """The pattern's vertex count and the edge codes of all its labellings.

    Bit i of a code is set when pair i of combinations(range(m), 2) is an
    edge, so an m-vertex subset induces the pattern exactly when its own
    code, read the same way, is one of these.
    """
    m = pattern.n
    pairs = list(enumerate(combinations(range(m), 2)))
    codes = frozenset(
        sum(1 << i for i, (u, v) in pairs if pattern.has_edge(perm[u], perm[v]))
        for perm in permutations(range(m))
    )
    return m, codes


_P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])

PATTERNS: Dict[str, Tuple[int, FrozenSet[int]]] = {
    "p5": _labelled_copies(_P5),
    "p5_complement": _labelled_copies(complement(_P5)),
    "c5": _labelled_copies(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])),
    "2k2": _labelled_copies(Graph(4, [(0, 1), (2, 3)])),
    "k4": _labelled_copies(Graph(4, list(combinations(range(4), 2)))),
    "diamond": _labelled_copies(Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])),
}


def contains_induced(g: Graph, pattern: str) -> Optional[frozenset]:
    """First vertex set (lex order) inducing the named pattern, or None."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    m, codes = PATTERNS[pattern]
    adj = g.adj
    for subset in combinations(range(g.n), m):
        code = 0
        for i, (u, v) in enumerate(combinations(subset, 2)):
            if (adj[u] >> v) & 1:
                code |= 1 << i
        if code in codes:
            return frozenset(subset)
    return None


# -- chromatic number ---------------------------------------------------------


class ChromaticBoundExceeded(ValueError):
    """No proper colouring exists within the given upper bound."""


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


def chromatic_number(g: Graph, upper_bound: Optional[int] = None) -> int:
    """Least k admitting a proper k-colouring; exact backtracking search."""
    if g.n == 0:
        return 0
    if upper_bound is None:
        upper_bound = g.n
    if upper_bound < 1:
        raise ValueError("upper_bound must be >= 1")
    for k in range(1, upper_bound + 1):
        if find_k_colouring(g, k) is not None:
            return k
    raise ChromaticBoundExceeded(
        f"graph is not {upper_bound}-colourable; raise the bound"
    )


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
    return _make_two_pair(g, x, y), tag


def subgraph_passes_compactness(g: Graph, active: Optional[int] = None) -> bool:
    """Definition check for the subgraph induced on ``active`` (default: all
    of g): complete, or has a qualifying 2-pair."""
    if active is None:
        active = g.full_mask
    return is_clique_mask(g, active) or qualifying_pair_in(g, active) is not None


def is_compact_bruteforce(g: Graph, limit: int = 12) -> CompactnessVerdict:
    """Check every nonempty induced subgraph against the compactness cases.

    Subsets are enumerated in increasing size, then lexicographically, so a
    failing witness is the least minimum-size one.  On success the verdict
    carries an elimination certificate for the whole graph.
    """
    if g.n > limit:
        raise ValueError(f"n={g.n} exceeds the brute-force limit {limit}")
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            if not subgraph_passes_compactness(g, mask_of(subset)):
                return CompactnessVerdict(False, failing_subset=frozenset(subset))
    from .recolour import find_elimination_certificate  # avoid import cycle

    cert = find_elimination_certificate(g)
    if cert is None:
        raise AssertionError("compact graph without elimination certificate")
    return CompactnessVerdict(True, certificate=cert)


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
        d = 0
        for v in range(g.n):
            if (t_mask >> v) & 1:
                continue
            if t_mask & ~g.adj[v] == 0:
                d |= 1 << v
        return d

    def has_nonadjacent_pair(mask: int) -> bool:
        vs = list(bits(mask))
        return any(
            not g.has_edge(u, v) for u, v in combinations(vs, 2)
        )

    t_mask = 1 << m
    grown = True
    while grown:
        grown = False
        for t in range(g.n):
            if (t_mask >> t) & 1:
                continue
            cand = t_mask | (1 << t)
            if not is_anticonnected(g, bits(cand)):
                continue
            if not has_nonadjacent_pair(t_complete(cand)):
                continue
            t_mask = cand
            grown = True
            break

    d_mask = t_complete(t_mask)
    sub, mapping = induced_subgraph(g, bits(d_mask))
    inverse = {new: old for old, new in mapping.items()}
    pairs = find_two_pairs(sub)
    if not pairs:
        raise RuntimeError("no 2-pair found in the T-complete set")
    local = pairs[0]
    x, y = inverse[local.x], inverse[local.y]
    if not is_two_pair(g, x, y):
        raise RuntimeError("extracted pair is not a 2-pair of the host graph")
    probe = AnticonnectedProbe(frozenset(bits(t_mask)), frozenset(bits(d_mask)))
    return probe, _make_two_pair(g, x, y)
