"""Constructive recolouring: elimination certificates, the complete-graph
base case, the recursive recolouring of certified graphs with its 2n-per-vertex
guarantee, plus a sequence validator and a BFS distance oracle."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .explorer import (
    DEFAULT_CAP,
    CapacityError,
    Colouring,
    decode,
    encode,
    is_proper,
)
from .graph import Graph, bits, is_clique_mask
from .recognition import qualifying_pair_in


class PaletteError(ValueError):
    """The palette is too small for the requested recolouring."""


class CertificateError(ValueError):
    """A certificate's structural facts fail to replay on the host graph."""


@dataclass
class RecolourSequence:
    """Colourings ``start`` and ``end`` and the single-vertex switches
    between them, each a ``(vertex, colour)`` pair."""

    start: Colouring
    steps: List[Tuple[int, int]]
    end: Colouring

    def __len__(self) -> int:
        return len(self.steps)

    def per_vertex_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for v, _ in self.steps:
            counts[v] = counts.get(v, 0) + 1
        return counts

    def max_per_vertex(self) -> int:
        counts = self.per_vertex_counts()
        return max(counts.values()) if counts else 0


# -- elimination certificates --------------------------------------------------


@dataclass(frozen=True)
class PairRemoval:
    """Case (ii): {x, y} is a 2-pair with N(x) contained in N(y); x is removed."""

    x: int
    y: int


@dataclass(frozen=True)
class TriangleRemoval:
    """Case (iii) with a one-vertex separator {z}: the x-side is {x, w} and
    {x, w, z} is a clique; x and w are removed."""

    x: int
    w: int
    z: int
    y: int


@dataclass(frozen=True)
class CliqueComponentRemoval:
    """Case (iii) with an empty separator: the x-side is an entire connected
    component inducing a clique of at most three vertices, all removed."""

    vertices: Tuple[int, ...]


@dataclass(frozen=True)
class CompleteBase:
    remaining: Tuple[int, ...]


Event = Union[PairRemoval, TriangleRemoval, CliqueComponentRemoval, CompleteBase]


@dataclass
class EliminationCertificate:
    events: List[Event] = field(default_factory=list)


def find_elimination_certificate(g: Graph) -> Optional[EliminationCertificate]:
    """Greedy elimination per the compactness cases; None if some stage has no
    qualifying 2-pair (the graph is then not compact).  Each stage works on
    the bitmask of the vertices not yet removed."""
    active = g.full_mask
    events: List[Event] = []
    while not is_clique_mask(g, active):
        found = qualifying_pair_in(g, active)
        if found is None:
            return None
        x, y, sep, side, tag = found
        if tag == "ii":
            events.append(PairRemoval(x, y))
        elif sep:
            # case (iii) with separator {z}: the x-side is {x, w}
            w = (side & ~(1 << x)).bit_length() - 1
            events.append(TriangleRemoval(x, w, sep.bit_length() - 1, y))
        else:  # empty separator: the x-side is a whole clique component
            events.append(CliqueComponentRemoval(tuple(bits(side))))
        active &= ~side
    events.append(CompleteBase(tuple(bits(active))))
    return EliminationCertificate(events)


def certified_chromatic_number(g: Graph, cert: EliminationCertificate) -> int:
    """Replay cert on g and return the chromatic number of g.

    Raises CertificateError at the first event whose structural facts fail on
    g.  A certificate that replays fixes chi exactly: a pair removal keeps it
    (x can copy y's colour), a triangle removal needs 3, a clique component
    needs its size, and the complete base needs its size.
    """
    if not cert.events or not isinstance(cert.events[-1], CompleteBase):
        raise CertificateError("certificate must end with a complete base")
    active = g.full_mask
    chi = 0

    def active_adj(v: int) -> int:
        return g.adj[v] & active

    for ev in cert.events:
        if isinstance(ev, CompleteBase):
            break  # events after the first complete base are never read
        if isinstance(ev, PairRemoval):
            x, y = ev.x, ev.y
            if x == y:
                raise CertificateError("pair removal names one vertex twice")
            if not ((active >> x) & 1 and (active >> y) & 1):
                raise CertificateError("pair removal names an inactive vertex")
            if g.has_edge(x, y):
                raise CertificateError("pair removal vertices are adjacent")
            if active_adj(x) & ~active_adj(y):
                raise CertificateError("pair removal lacks nested neighbourhoods")
            active &= ~(1 << x)
        elif isinstance(ev, TriangleRemoval):
            x, w, z = ev.x, ev.w, ev.z
            for v in (x, w, z):
                if not (active >> v) & 1:
                    raise CertificateError("triangle removal names an inactive vertex")
            if active_adj(x) != (1 << w) | (1 << z):
                raise CertificateError("x must be adjacent exactly to w and z")
            if active_adj(w) != (1 << x) | (1 << z):
                raise CertificateError("w must be adjacent exactly to x and z")
            chi = max(chi, 3)
            active &= ~(1 << x) & ~(1 << w)
        elif isinstance(ev, CliqueComponentRemoval):
            vmask = 0
            for v in ev.vertices:
                if not (active >> v) & 1:
                    raise CertificateError("component removal names an inactive vertex")
                vmask |= 1 << v
            if vmask.bit_count() != len(ev.vertices):
                raise CertificateError("component removal repeats a vertex")
            if not is_clique_mask(g, vmask):
                raise CertificateError("removed component is not a clique")
            for v in ev.vertices:
                if active_adj(v) & ~vmask:
                    raise CertificateError("removed clique is not a full component")
            chi = max(chi, vmask.bit_count())
            active &= ~vmask
        else:
            raise CertificateError(f"unknown certificate event {ev!r}")
    if list(bits(active)) != sorted(ev.remaining):
        raise CertificateError("complete base does not match residual set")
    if not is_clique_mask(g, active):
        raise CertificateError("residual set is not a clique")
    return max(chi, active.bit_count())


# -- complete-graph base case ---------------------------------------------------


def recolour_complete(
    n: int, palette: int, a: Colouring, b: Colouring
) -> RecolourSequence:
    """Recolour one proper colouring of K_n into another with >= n+1 colours.

    Vertices are fixed to their target in ascending order; a vertex holding
    the needed colour is first evicted to a colour nobody uses.
    """
    if palette < n + 1:
        raise PaletteError(f"palette {palette} < n+1 = {n + 1}")
    for c in (a, b):
        if len(c) != n or c.k != palette:
            raise ValueError("colouring does not match n and palette")
        if any(not 0 <= x < palette for x in c.assignment):
            raise ValueError("colour out of palette range")
        if len(set(c.assignment)) != n:
            raise ValueError("colouring of a complete graph must be injective")
    cur = list(a.assignment)
    steps: List[Tuple[int, int]] = []
    for v in range(n):
        target = b[v]
        if cur[v] == target:
            continue
        holder = next((u for u in range(n) if u != v and cur[u] == target), None)
        if holder is not None:
            free = next(c for c in range(palette) if c not in cur)
            steps.append((holder, free))
            cur[holder] = free
        steps.append((v, target))
        cur[v] = target
    return RecolourSequence(a, steps, b)


# -- recolouring certified graphs ------------------------------------------------


def _least_colour_outside(palette: int, forbidden: set) -> int:
    for c in range(palette):
        if c not in forbidden:
            return c
    raise PaletteError("no evasion colour available")


def recolour_compact(
    g: Graph, cert: EliminationCertificate, a: Colouring, b: Colouring
) -> RecolourSequence:
    """Produce a recolouring sequence from a to b along the certificate.

    Requires palette >= chromatic number + 1, and >= 4 whenever the
    certificate contains a triangle removal.  The certificate is replayed on g
    first (CertificateError if it does not fit), which also gives the
    chromatic number.  Every emitted sequence keeps all intermediate
    colourings proper and recolours each vertex at most 2n times.
    """
    if a.k != b.k:
        raise ValueError("colourings use different palettes")
    p = a.k
    if not (is_proper(g, a) and is_proper(g, b)):
        raise ValueError("input colourings must be proper")
    chi = certified_chromatic_number(g, cert)
    if p < chi + 1:
        raise PaletteError(f"palette {p} < chromatic number + 1 = {chi + 1}")
    if any(isinstance(e, TriangleRemoval) for e in cert.events) and p < 4:
        raise PaletteError("triangle removals require a palette of at least 4")
    if a.assignment == b.assignment:
        return RecolourSequence(a, [], b)
    return RecolourSequence(a, _certificate_steps(cert, p, a.assignment, b.assignment), b)


def _complete_steps(
    verts: Tuple[int, ...], p: int, alpha: Tuple[int, ...], beta: Tuple[int, ...]
) -> List[Tuple[int, int]]:
    """recolour_complete on the clique verts, in host vertex ids."""
    sub_a = Colouring(tuple(alpha[v] for v in verts), p)
    sub_b = Colouring(tuple(beta[v] for v in verts), p)
    inner = recolour_complete(len(verts), p, sub_a, sub_b)
    return [(verts[v], c) for v, c in inner.steps]


def _certificate_steps(
    cert: EliminationCertificate, p: int, alpha: Tuple[int, ...], beta: Tuple[int, ...]
) -> List[Tuple[int, int]]:
    """The steps from alpha to beta along a certificate that replays.

    The sequence is defined level by level: level i recolours what is left
    after the first i removals, by transforming the steps of level i + 1.
    - Pair removal (x, y): x first copies y's colour, then copies each switch
      of y right after it, and finally takes its colour in beta.
    - Triangle removal (x, w, z): before z switches to the colour of x or w,
      that vertex moves to the least colour outside the triangle; at the end
      x, then w, take their colours in beta (w first stepping aside if it
      holds x's target).
    - Clique component: its recolouring as a complete graph is appended.
    - Complete base: the recolouring of the residual clique.
    A level reads only its own vertices, whose colours no other level changes
    except through the one vertex it watches (y or z), so all levels share one
    current colouring, and alpha and beta need no per-level copies.  Each
    switch made at level j visits just the levels below j that watch its
    vertex, innermost first, on an explicit stack instead of recursion.
    """
    end = next(i for i, ev in enumerate(cert.events) if isinstance(ev, CompleteBase))
    levels = cert.events[:end]
    watchers: Dict[int, List[int]] = {}
    for i, ev in enumerate(levels):
        if isinstance(ev, PairRemoval):
            watchers.setdefault(ev.y, []).append(i)
        elif isinstance(ev, TriangleRemoval):
            watchers.setdefault(ev.z, []).append(i)
    cur = list(alpha)
    out: List[Tuple[int, int]] = []

    def switch(v: int, c: int, level: int) -> None:
        """Pass a switch of v to c, made at ``level``, through the levels
        below it and append everything that results."""
        stack: List[Tuple[Optional[int], int, int]] = [(v, c, level)]
        while stack:
            v, c, level = stack.pop()
            if v is None:  # pair removal `level` after its y reached colour c
                x = levels[level].x
                if cur[x] != c:
                    stack.append((x, c, level))
                continue
            below = watchers.get(v, ())
            pos = bisect_left(below, level)
            if pos == 0:
                out.append((v, c))
                cur[v] = c
                continue
            i = below[pos - 1]
            ev = levels[i]
            if isinstance(ev, PairRemoval):
                stack.append((None, c, i))
                stack.append((v, c, i))
            else:  # a triangle removal whose z is v
                stack.append((v, c, i))
                if cur[ev.x] == c:
                    stack.append((ev.x, _least_colour_outside(p, {cur[ev.w], cur[v], c}), i))
                elif cur[ev.w] == c:
                    stack.append((ev.w, _least_colour_outside(p, {cur[ev.x], cur[v], c}), i))

    for i, ev in enumerate(levels):
        if isinstance(ev, PairRemoval) and cur[ev.x] != cur[ev.y]:
            switch(ev.x, cur[ev.y], i)
    for v, c in _complete_steps(cert.events[end].remaining, p, alpha, beta):
        switch(v, c, end)
    for i in reversed(range(end)):
        ev = levels[i]
        if isinstance(ev, PairRemoval):
            if cur[ev.x] != beta[ev.x]:
                switch(ev.x, beta[ev.x], i)
        elif isinstance(ev, TriangleRemoval):
            x, w, z = ev.x, ev.w, ev.z
            if cur[x] != beta[x] and cur[w] == beta[x]:
                switch(w, _least_colour_outside(p, {cur[x], cur[z], beta[x]}), i)
            if cur[x] != beta[x]:
                switch(x, beta[x], i)
            if cur[w] != beta[w]:
                switch(w, beta[w], i)
        else:
            for v, c in _complete_steps(ev.vertices, p, alpha, beta):
                switch(v, c, i)
    return out


# -- validation and the BFS oracle -----------------------------------------------


@dataclass
class ValidationReport:
    ok: bool
    message: Optional[str]
    error_index: Optional[int]
    total_steps: int
    per_vertex_counts: Dict[int, int]


def validate_sequence(g: Graph, s: RecolourSequence) -> ValidationReport:
    """Replay a sequence and report the first violation, if any."""
    counts: Dict[int, int] = {}

    def fail(msg: str, idx: Optional[int] = None) -> ValidationReport:
        return ValidationReport(False, msg, idx, len(s.steps), counts)

    if s.start.k != s.end.k:
        return fail("start and end palettes differ")
    k = s.start.k
    if not is_proper(g, s.start):
        return fail("start colouring is not proper")
    cur = list(s.start.assignment)
    for i, (v, c) in enumerate(s.steps):
        if not 0 <= v < g.n:
            return fail(f"step {i}: vertex {v} out of range", i)
        if not 0 <= c < k:
            return fail(f"step {i}: colour {c} out of palette", i)
        if cur[v] == c:
            return fail(f"step {i}: vertex {v} already has colour {c}", i)
        if any(cur[u] == c for u in bits(g.adj[v])):
            return fail(f"step {i}: colour {c} clashes with a neighbour of {v}", i)
        cur[v] = c
        counts[v] = counts.get(v, 0) + 1
    if tuple(cur) != s.end.assignment:
        return fail("replay does not reach the stated end colouring")
    return ValidationReport(True, None, None, len(s.steps), counts)


def bfs_distance(g: Graph, k: int, a: Colouring, b: Colouring) -> Optional[int]:
    """Exact distance between a and b in R_k(G); None if disconnected.

    A bidirectional BFS over mixed-radix codes that builds no part of R_k
    beyond the colourings it reaches: it expands the smaller frontier one
    whole level at a time and stops at the first level where the two
    searches meet.  Raises CapacityError once the two searches together hold
    more than DEFAULT_CAP colourings, at about 85 B each."""
    for c in (a, b):
        if not is_proper(g, Colouring(c.assignment, k)):
            raise ValueError("colouring is not a node of the reconfiguration graph")
    n = g.n
    src, dst = encode(a.assignment, k), encode(b.assignment, k)
    if src == dst:
        return 0
    nbrs_weight = [(list(bits(g.adj[v])), k ** (n - 1 - v)) for v in range(n)]
    depths: List[Dict[int, int]] = [{src: 0}, {dst: 0}]  # code -> depth, per side
    frontiers = [[src], [dst]]
    levels = [0, 0]  # the depth of each side's frontier
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = depths[side], depths[1 - side]
        levels[side] += 1
        depth = levels[side]
        nxt = []
        for code in frontiers[side]:
            cur = decode(code, n, k)
            for x, (nbrs, weight) in zip(cur, nbrs_weight):
                taken = [cur[u] for u in nbrs]
                for col in range(k):
                    if col == x or col in taken:
                        continue
                    nb = code + (col - x) * weight
                    if nb in mine:
                        continue
                    if nb in other:
                        return depth + other[nb]
                    mine[nb] = depth
                    nxt.append(nb)
            if len(mine) + len(other) > DEFAULT_CAP:
                raise CapacityError(
                    f"bfs_distance reached more than {DEFAULT_CAP} proper "
                    f"{k}-colourings"
                )
        frontiers[side] = nxt
    return None
