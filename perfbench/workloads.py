"""The four workloads: seeded corpora and the per-instance oracles.

A workload is a fixed mix of graph families and sizes; the seed changes only
the random structure inside a family (tree shapes, edge samples, vertex
labels, colourings), so every seed loads the program alike and a claim made
on one seed can be checked on another.  The program under test receives only
the files written here; the oracles run outside the timed region and use the
facts recorded at generation time, re-derived independently where that is
cheap.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import graphs as G

WORKLOADS = ("certify", "recognize", "reconfig-diameter", "reconfig-scale")


@dataclass
class Instance:
    """One corpus entry: the CLI calls it makes, in order, with their expected
    exit codes, plus the facts its oracle checks."""

    ident: int
    family: str
    n: int
    calls: List[Tuple[List[str], int]]
    facts: Dict[str, Any]
    edges: G.Edges = field(default_factory=list)
    # (graph file, palette, a, b) for a direct recolouring.bfs_distance call
    bfs: Optional[Tuple[str, int, List[int], List[int]]] = None

    def prefix(self) -> str:
        return f"i{self.ident:03d}"


@dataclass
class Corpus:
    workload: str
    instances: List[Instance]
    files: Dict[str, str]

    def warmup(self) -> Instance:
        """The smallest instance, run once at the end of set-up."""
        return min(self.instances, key=lambda inst: (inst.n, inst.ident))


class _Draft:
    """Collects a workload's instances by family, then numbers them and
    writes their files."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.families: Dict[str, List[Tuple[Instance, Callable, G.Edges]]] = {}
        self.files: Dict[str, str] = {}

    def new(self, family: str, n: int, make: Callable, edges: G.Edges = (), **facts: Any) -> None:
        inst = Instance(-1, family, n, [], facts)
        self.families.setdefault(family, []).append((inst, make, list(edges)))

    def graph_file(self, inst: Instance, edges: G.Edges) -> str:
        # alternate the two input formats so both loaders stay on the path
        if inst.ident % 2:
            name = f"{inst.prefix()}.col"
            self.files[name] = G.dimacs(inst.n, edges)
        else:
            name = f"{inst.prefix()}.json"
            self.files[name] = json.dumps(G.json_graph(inst.n, edges))
        inst.edges = edges
        return name

    def json_file(self, name: str, obj: Any) -> str:
        self.files[name] = json.dumps(obj)
        return name

    def finish(self) -> Corpus:
        """Spread every family evenly over the pass, so that any prefix of
        the pass holds about the same mix; files are named after the final
        instance ids, so they are made last."""
        keyed = []
        for fam_index, (_, entries) in enumerate(sorted(self.families.items())):
            for i, entry in enumerate(entries):
                keyed.append(((i + 0.5) / len(entries), fam_index, entry))
        keyed.sort(key=lambda t: t[:2])
        for ident, (_, _, (inst, make, edges)) in enumerate(keyed):
            inst.ident = ident
            make(self, inst, edges)
        return Corpus(self.workload, [t[2][0] for t in keyed], self.files)


# -- certify ----------------------------------------------------------------------

# the extra n=35 paths put the median instance inside a group of like
# instances, and the n=90 and n=100 co-chordal pairs hold the tail percentile
CERTIFY_PATHS = (20, 25, 30, 35, 40, 45, 50, 55, 60) + (35,) * 4
CERTIFY_TREES = (20, 25, 30, 35, 40, 45, 50, 55, 60)
CERTIFY_COCHORDAL = (30, 40, 50, 60, 70, 80, 90, 100) * 2
CERTIFY_CYCLES = (10, 20, 30, 40)


def _certify_make(b: _Draft, inst: Instance, edges: G.Edges) -> None:
    f = inst.facts
    gfile = b.graph_file(inst, edges)
    p = inst.prefix()
    afile = b.json_file(f"{p}.a.json", f["a"])
    bfile = b.json_file(f"{p}.b.json", f["b"])
    recolour = ["recolour", gfile, "--k", str(f["k"]), "--from", afile,
                "--to", bfile, "-o", f"{p}.seq.json"]
    if not f["compact"]:
        inst.calls = [(recolour, 1)]
        return
    validate = ["validate", gfile, "--seq", f"{p}.seq.json", "--from", afile,
                "-o", f"{p}.val.json"]
    inst.calls = [(recolour, 0), (validate, 0)]


def build_certify(seed: int) -> Corpus:
    b = _Draft("certify", seed)
    rng = b.rng

    def sparse(family: str, n: int, edges: G.Edges) -> None:
        adj = G.adjacency(n, edges)
        b.new(family, n, _certify_make, edges, k=3, compact=True,
              a=G.sparse_colouring(adj, 3, rng), b=G.sparse_colouring(adj, 3, rng))

    for n in CERTIFY_PATHS:
        sparse("path", n, G.path(n))
    for n in CERTIFY_TREES:
        sparse("tree", n, G.relabelled(n, G.random_tree(n, rng), rng))
    for n in CERTIFY_COCHORDAL:
        edges, owner = G.random_cochordal(n, rng)
        chi = max(owner) + 1
        k = chi + 1
        a = G.colour_classes_to_colouring(owner, k, rng)
        start = G.colour_classes_to_colouring(owner, k, rng)
        target = G.random_walk(G.adjacency(n, edges), start, k, 4 * n, rng)
        b.new("cochordal", n, _certify_make, edges, k=k, chi=chi, compact=True,
              a=a, b=target)
    for n in CERTIFY_CYCLES:
        edges = G.relabelled(n, G.cycle(n), rng)
        adj = G.adjacency(n, edges)
        b.new("cycle", n, _certify_make, edges, k=3, compact=False,
              a=G.sparse_colouring(adj, 3, rng), b=G.sparse_colouring(adj, 3, rng))
    return b.finish()


def check_certify(inst: Instance, out: "Outputs") -> Optional[str]:
    f = inst.facts
    if not f["compact"]:
        if "not compact" not in out.stderr[0]:
            return f"unexpected error text {out.stderr[0]!r}"
        return None
    seq = read_json(f"{inst.prefix()}.seq.json")
    val = read_json(f"{inst.prefix()}.val.json")
    if seq["start"] != f["a"] or seq["end"] != f["b"]:
        return "sequence does not run from a to b"
    if not val["ok"] or val["total_steps"] != len(seq["steps"]):
        return f"validate rejected the sequence: {val['message']}"
    if val["max_per_vertex"] > 2 * inst.n:
        return f"max_per_vertex {val['max_per_vertex']} > 2n"
    adj = G.adjacency(inst.n, inst.edges)
    cur = list(f["a"])
    for v, c in seq["steps"]:
        if cur[v] == c or any(cur[u] == c for u in adj[v]) or not 0 <= c < f["k"]:
            return f"improper step ({v}, {c})"
        cur[v] = c
    if cur != f["b"]:
        return "replay does not reach the target colouring"
    return None


# -- recognize --------------------------------------------------------------------

RECOGNIZE_SMALL = (11, 12) * 4  # trees and co-chordal graphs, both compact
RECOGNIZE_MID = (20, 22, 24, 26, 28, 30) * 5  # co-chordal "yes" inputs
RECOGNIZE_ER = (10, 20, 22, 24, 26, 28, 30, 30)  # planted C5, never weakly chordal
RECOGNIZE_GK = (3, 4)


def _recognize_make(b: _Draft, inst: Instance, edges: G.Edges) -> None:
    f = inst.facts
    if inst.family == "search-h":
        inst.calls = [(["search-h", "--n", "8", "--budget", "600", "--seed",
                        str(f["seed"]), "-o", f"{inst.prefix()}.out.json"], 0)]
        return
    gfile = b.graph_file(inst, edges)
    inst.calls = [(["recognize", gfile, "-o", f"{inst.prefix()}.out.json"], 0)]


def build_recognize(seed: int) -> Corpus:
    b = _Draft("recognize", seed)
    rng = b.rng

    def add(family: str, n: int, edges: G.Edges, **facts: Any) -> None:
        b.new(family, n, _recognize_make, edges, **facts)

    def cochordal(family: str, n: int) -> None:
        edges, owner = G.random_cochordal(n, rng)
        add(family, n, edges, weakly_chordal=True, co_chordal=True,
            chi=max(owner) + 1, compact=True)

    # forests and co-chordal graphs are compact, so the brute-force check
    # sweeps all 2^n - 1 subsets
    for n in RECOGNIZE_SMALL:
        tree = G.relabelled(n, G.random_tree(n, rng), rng)
        add("tree-small", n, tree, weakly_chordal=True, chi=2, compact=True)
        cochordal("cochordal-small", n)
    for n in RECOGNIZE_MID:
        cochordal("cochordal-mid", n)
    for n in RECOGNIZE_ER:
        edges = G.relabelled(n, G.er_with_hole(n, 0.3, 5, rng), rng)
        add("er-hole", n, edges, weakly_chordal=False, co_chordal=False,
            patterns_free=False, compact=False)
    for k in RECOGNIZE_GK:
        add("gk", 4 * k - 2, G.gk(k), weakly_chordal=True, chi=k, compact=False)
    b.new("search-h", 8, _recognize_make, seed=rng.randrange(1 << 16))
    return b.finish()


def _separates(adj, x: int, y: int, sep: set) -> bool:
    seen = {x}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in seen and u not in sep:
                seen.add(u)
                queue.append(u)
    return y not in seen


def check_recognize(inst: Instance, out: "Outputs", verify_witness: Callable) -> Optional[str]:
    f = inst.facts
    rep = read_json(f"{inst.prefix()}.out.json")
    if inst.family == "search-h":
        if not rep["candidates"]:
            return "search-h found no witness in the twin blow-up preamble"
        for cand in rep["candidates"]:
            problem = verify_witness(cand)
            if problem:
                return f"search-h candidate fails re-verification: {problem}"
        return None
    if rep["n"] != inst.n:
        return "wrong n"
    for key in ("weakly_chordal", "co_chordal"):
        if key in f and rep[key] != f[key]:
            return f"{key} is {rep[key]}, expected {f[key]}"
    if rep["co_chordal"] and not rep["weakly_chordal"]:
        return "co-chordal but not weakly chordal"
    if "chi" in f and rep["chromatic_number"] != f["chi"]:
        return f"chromatic number {rep['chromatic_number']}, expected {f['chi']}"
    if "patterns_free" in f and rep["p5_p5bar_c5_free"] != f["patterns_free"]:
        return "pattern verdict wrong"
    verdict = rep["compact"]["verdict"]
    expected = f["compact"] if inst.n <= 12 else None  # above the CLI's limit
    if verdict != expected:
        return f"compact verdict {verdict}, expected {expected}"
    adj = G.adjacency(inst.n, inst.edges)
    for p in rep["two_pairs"]:
        x, y, sep = p["x"], p["y"], set(p["separator"])
        if y in adj[x] or sep != adj[x] & adj[y] or not _separates(adj, x, y, sep):
            return f"reported 2-pair ({x}, {y}) is not a 2-pair"
    return None


# -- reconfig-diameter and reconfig-scale -------------------------------------------

# (family, n, k), where n is the k of G_k for the gk family.  Each ER and
# co-chordal sample is the one of RANDOM_CANDIDATES draws whose R_k node
# count is nearest RANDOM_NODE_TARGET, so seeds differ in structure more than
# in size, and set-up does the same work whatever the seed.
# The tree counts put the median instance in the middle of the 384-node
# trees and the tail among the 768-node ones, so that neither percentile
# falls on the ER and co-chordal samples, whose cost varies most.
DIAMETER_FIXED = (
    ("path", 7, 3), ("path", 8, 3), ("path", 9, 3), ("path", 10, 3),
    ("cycle", 8, 3), ("cycle", 10, 3), ("cycle", 5, 4), ("cycle", 6, 4),
    ("gk", 3, 4),
) + (("tree", 7, 3),) * 10 + (("tree", 8, 3),) * 17 + (("tree", 9, 3),) * 5
# a co-chordal sample gets the palette chi + 1, so its k is set per sample
DIAMETER_RANDOM = (("er", 8, 3),) * 2 + (("cochordal", 7, None),) * 2
RANDOM_NODE_TARGET = 650
RANDOM_CANDIDATES = 30

# The tree counts put the median instance in the middle of the 6,144-node
# trees and the tail among the 12,288-node ones.
SCALE_FIXED = (
    ("path", 12, 3), ("path", 13, 3), ("path", 14, 3),
    ("cycle", 8, 4), ("cycle", 9, 4), ("cycle", 10, 4),
) + (("tree", 11, 3),) * 5 + (("tree", 12, 3),) * 12 + (("tree", 13, 3),) * 4
SCALE_GK = (4,)


def chromatic_polynomial(family: str, n: int, k: int) -> Optional[int]:
    if family in ("path", "tree"):
        return k * (k - 1) ** (n - 1)
    if family == "cycle":
        return (k - 1) ** n + (-1) ** n * (k - 1)
    return None


def _reconfig_make(b: _Draft, inst: Instance, edges: G.Edges) -> None:
    f = inst.facts
    p = inst.prefix()
    if inst.family == "gen-gk":
        inst.calls = [(["gen", "gk", "--k", str(f["gk"]), "-o", f"{p}.graph.json"], 0)]
        return
    gfile = b.graph_file(inst, edges)
    argv = ["reconfig", gfile, "--k", str(f["k"]), "--frozen", "-o", f"{p}.out.json"]
    if b.workload == "reconfig-diameter":
        argv.insert(4, "--diameter")
    inst.calls = [(argv, 0)]
    if b.workload == "reconfig-scale":
        # b shifts every colour of a, so the pair is n switches apart at
        # least and the BFS explores most of R_k whatever the seed
        k = f["k"]
        a = G.sparse_colouring(G.adjacency(inst.n, edges), k, b.rng)
        shift = b.rng.randrange(1, k)
        inst.bfs = (gfile, k, a, [(c + shift) % k for c in a])


def _fixed_graph(family: str, n: int, rng: random.Random) -> G.Edges:
    if family == "path":
        return G.path(n)
    if family == "cycle":
        return G.cycle(n)
    if family == "tree":
        return G.relabelled(n, G.random_tree(n, rng), rng)
    raise ValueError(family)


def build_reconfig(workload: str, seed: int) -> Corpus:
    b = _Draft(workload, seed)
    rng = b.rng
    diameter = workload == "reconfig-diameter"
    for family, n, k in DIAMETER_FIXED if diameter else SCALE_FIXED:
        if family == "gk":
            b.new("gk", 4 * n - 2, _reconfig_make, G.gk(n), k=k, count=1272,
                  components=25, frozen=24)
            continue
        b.new(family, n, _reconfig_make, _fixed_graph(family, n, rng), k=k,
              count=chromatic_polynomial(family, n, k))
    if diameter:
        for family, n, k in DIAMETER_RANDOM:
            candidates = []
            for _ in range(RANDOM_CANDIDATES):
                if family == "er":
                    edges = G.relabelled(n, G.er(n, 0.3, rng), rng)
                    pk = k
                else:
                    edges, owner = G.random_cochordal(n, rng)
                    pk = max(owner) + 2  # chi + 1
                count = G.count_colourings(n, edges, pk, limit=2 * RANDOM_NODE_TARGET)
                candidates.append((abs(count - RANDOM_NODE_TARGET), count, edges, pk))
            _, _, edges, pk = min(candidates, key=lambda c: c[:2])
            b.new(family, n, _reconfig_make, edges, k=pk,
                  count=G.count_colourings(n, edges, pk))
    else:
        for k in SCALE_GK:
            b.new("gen-gk", 4 * k - 2, _reconfig_make, gk=k)
    return b.finish()


def check_reconfig(inst: Instance, out: "Outputs", is_frozen: Callable) -> Optional[str]:
    f = inst.facts
    p = inst.prefix()
    if inst.family == "gen-gk":
        graph = read_json(f"{p}.graph.json")
        report = json.loads(out.stdout[0])
        edges = [tuple(e) for e in graph["edges"]]
        if edges != G.gk(f["gk"]) or report["k"] != f["gk"]:
            return "gen gk wrote a different graph"
        if not report["frozen_search_exhausted"] or report["frozen_colouring"] is None:
            return "frozen search did not finish with a frozen colouring"
        frozen = report["frozen_colouring"]
        if not is_frozen(graph["n"], edges, frozen, f["gk"] + 1):
            return "reported frozen colouring is not frozen"
        return None
    rep = read_json(f"{p}.out.json")
    k = f["k"]
    if f["count"] is not None and rep["colouring_count"] != f["count"]:
        return f"colouring count {rep['colouring_count']}, expected {f['count']}"
    sizes = rep["component_sizes"]
    if sum(sizes) != rep["colouring_count"] or len(sizes) != rep["component_count"]:
        return "component sizes do not add up"
    if "components" in f and (rep["component_count"], len(rep["frozen_colourings"])) != (
        f["components"], f["frozen"]
    ):
        return "R_4(G_3) structure differs from 1272/25/24"
    if len(rep["frozen_colourings"]) != len(rep["frozen_colouring_indices"]):
        return "frozen colourings and indices differ in number"
    for col in rep["frozen_colourings"]:
        if not is_frozen(inst.n, inst.edges, col, k):
            return f"frozen colouring {col} is not frozen"
    if len(rep["frozen_colourings"]) != sizes.count(1):
        return "frozen colourings are not the single-node components"
    diameters = rep["component_diameters"]
    if "--diameter" in inst.calls[0][0]:
        if any(d is None or not 0 <= d < size for d, size in zip(diameters, sizes)):
            return f"diameters {diameters} impossible for components {sizes}"
        if rep["diameter"] != (diameters[0] if len(sizes) == 1 else None):
            return "overall diameter disagrees with the component diameters"
    elif any(d is not None for d in diameters):
        return "diameters reported without --diameter"
    if inst.bfs is not None:
        _, _, a, b = inst.bfs
        dist = out.bfs
        hamming = sum(x != y for x, y in zip(a, b))
        if dist is None or dist < hamming:
            return f"bfs_distance {dist} below Hamming distance {hamming}"
    return None


def build(workload: str, seed: int) -> Corpus:
    if workload == "certify":
        return build_certify(seed)
    if workload == "recognize":
        return build_recognize(seed)
    return build_reconfig(workload, seed)


@dataclass
class Outputs:
    """What one instance produced besides its files: the captured streams of
    each call and the bfs_distance result."""

    stdout: List[str]
    stderr: List[str]
    bfs: Optional[int]


def read_json(name: str) -> Any:
    """An output file of the instance, from the corpus directory."""
    with open(name, "r", encoding="utf-8") as fh:
        return json.load(fh)
