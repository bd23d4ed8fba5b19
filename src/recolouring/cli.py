"""Command-line entry point wiring all modules together.

All outputs are JSON (DOT behind flags), keyed for reproducibility: identical
inputs and seeds give byte-identical output.  Exit codes: 0 success, 1 domain
error (capacity, precondition, format), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from typing import Any, Dict, List, Optional

from . import __version__
from .explorer import (
    DEFAULT_CAP,
    DEFAULT_DIAMETER_CAP,
    CapacityError,
    Colouring,
    build_reconfiguration_graph,
    summarize,
)
from .generators import generate_gk, generate_named, random_cochordal, random_graph, search_h
from .graph import Graph
from .io import GraphFormatError, graph_to_json_obj, load_graph, to_dot
from .recognition import (
    ChromaticBoundExceeded,
    chromatic_number,
    contains_induced,
    find_two_pairs,
    is_co_chordal,
    is_compact_bruteforce,
    is_weakly_chordal,
)
from .recolour import (
    CliqueComponentRemoval,
    CompleteBase,
    PairRemoval,
    RecolourSequence,
    RecolourStep,
    TriangleRemoval,
    find_elimination_certificate,
    recolour_compact,
    validate_sequence,
)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write(text: str, path: Optional[str]) -> None:
    """The one output writer: to the file at ``path``, else to stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj: Dict[str, Any], out: Optional[str]) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def _is_int_list(obj: Any) -> bool:
    # JSON integers load as exactly int; bool, a subclass of int, is rejected
    return type(obj) is list and all(type(x) is int for x in obj)


def _int_array(obj: Any, path: str) -> List[int]:
    """A colouring file's integer array: bare, or under "assignment"."""
    if isinstance(obj, dict) and "assignment" in obj:
        obj = obj["assignment"]
    if not _is_int_list(obj):
        raise ValueError(f"{path}: a colouring file must hold an integer array")
    return obj


def _load_colouring(path: str, k: int, n: int) -> Colouring:
    obj = _int_array(_load_json(path), path)
    if len(obj) != n:
        raise ValueError(f"{path}: colouring length {len(obj)} != n {n}")
    return Colouring(tuple(obj), k)


def _load_sequence(path: str) -> Dict[str, Any]:
    """A sequence file's object, with integer arrays "start" and "end" and
    "steps" a list of [vertex, colour] integer pairs."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: a sequence file must hold a JSON object")
    for key in ("start", "steps", "end"):
        if key not in obj:
            raise ValueError(f'{path}: sequence file lacks "{key}"')
    for key in ("start", "end"):
        if not _is_int_list(obj[key]):
            raise ValueError(f'{path}: "{key}" must be an integer array')
    if type(obj["steps"]) is not list:
        raise ValueError(f'{path}: "steps" must be an array')
    for i, step in enumerate(obj["steps"]):
        # tested inline, not by _is_int_list: a sequence can hold millions of steps
        if (
            type(step) is not list
            or len(step) != 2
            or type(step[0]) is not int
            or type(step[1]) is not int
        ):
            raise ValueError(f"{path}: step {i} must be [vertex, colour]")
    return obj


def _event_to_obj(ev: Any) -> Dict[str, Any]:
    if isinstance(ev, PairRemoval):
        return {"kind": "pair_removal", "x": ev.x, "y": ev.y}
    if isinstance(ev, TriangleRemoval):
        return {"kind": "triangle_removal", "x": ev.x, "w": ev.w, "z": ev.z, "y": ev.y}
    if isinstance(ev, CliqueComponentRemoval):
        return {"kind": "clique_component_removal", "vertices": list(ev.vertices)}
    if isinstance(ev, CompleteBase):
        return {"kind": "complete_base", "remaining": list(ev.remaining)}
    raise AssertionError(f"unknown event {ev!r}")


def _two_pair_to_obj(p: Any) -> Dict[str, Any]:
    return {
        "x": p.x,
        "y": p.y,
        "separator": sorted(p.separator),
        "component_of_x": sorted(p.component_of_x),
        "component_of_y": sorted(p.component_of_y),
    }


# -- subcommand handlers ---------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.generator == "gk":
        bundle = generate_gk(args.k)
        _emit(graph_to_json_obj(bundle.graph), args.out)
        report = {
            "report": "gen_gk",
            "tool_version": __version__,
            "k": bundle.k,
            "n": bundle.graph.n,
            "edge_count": bundle.graph.edge_count(),
            "base_colouring": list(bundle.base_colouring.assignment),
            "frozen_colouring": list(bundle.frozen_colouring.assignment),
            # no search runs: kept for report compatibility; perfbench's gen-gk oracle requires it
            "frozen_search_exhausted": True,
            "output": args.out,
        }
        if args.out:
            _emit(report, None)
        return 0
    if args.generator == "named":
        g = generate_named(args.name, args.n)
        _emit(graph_to_json_obj(g), args.out)
        return 0
    if args.generator == "random":
        if args.graph_class == "cochordal":
            g = random_cochordal(args.n, args.seed)
        else:
            g = random_graph(args.n, args.p, args.seed)
        _emit(graph_to_json_obj(g), args.out)
        return 0
    raise AssertionError


def _cmd_recognize(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    compact: Dict[str, Any]
    if g.n <= args.compact_limit:
        verdict = is_compact_bruteforce(g, limit=args.compact_limit)
        if verdict.compact:
            witness: Dict[str, Any] = {
                "certificate": [_event_to_obj(e) for e in verdict.certificate.events]
            }
        else:
            witness = {"failing_subset": sorted(verdict.failing_subset)}
        compact = {"verdict": verdict.compact, "witness": witness}
    else:
        compact = {"verdict": None, "reason": f"n > compact limit {args.compact_limit}"}
    report = {
        "report": "recognize",
        "tool_version": __version__,
        "input_digest": _digest(args.graph),
        "n": g.n,
        "weakly_chordal": is_weakly_chordal(g),
        "co_chordal": is_co_chordal(g),
        "p5_p5bar_c5_free": all(
            contains_induced(g, pat) is None for pat in ("p5", "p5_complement", "c5")
        ),
        "two_pairs": [_two_pair_to_obj(p) for p in find_two_pairs(g)],
        "chromatic_number": chromatic_number(g),
        "compact": compact,
    }
    _emit(report, args.out)
    return 0


def _cmd_reconfig(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    r = build_reconfiguration_graph(g, args.k, cap=args.cap)
    summary = summarize(
        r, diameter_cap=args.diameter_cap, compute_diameters=args.diameter
    )
    report: Dict[str, Any] = {
        "report": "reconfig",
        "tool_version": __version__,
        "input_digest": _digest(args.graph),
        "k": args.k,
        "colouring_count": summary.colouring_count,
        "component_count": summary.component_count,
        "component_sizes": summary.component_sizes,
        "component_diameters": summary.component_diameters,
        "diameter_capped": summary.diameter_capped,
        "diameter": summary.diameter,
        "frozen_colouring_indices": summary.frozen_colouring_indices,
    }
    if args.frozen:
        report["frozen_colourings"] = [
            list(r.nodes[i].assignment) for i in summary.frozen_colouring_indices
        ]
    if args.dump_dot:
        if r.node_count() > 10_000:
            raise CapacityError("refusing to dump DOT for more than 10000 nodes")
        edges = [(i, j) for i, row in enumerate(r.adjacency) for j in row if i < j]
        labels = {i: "".join(map(str, c.assignment)) for i, c in enumerate(r.nodes)}
        dot = to_dot(Graph(r.node_count(), edges, labels=labels), f"R{args.k}")
        _write(dot, args.dump_dot)
    _emit(report, args.out)
    return 0


def _sequence_to_obj(seq: RecolourSequence) -> Dict[str, Any]:
    return {
        "start": list(seq.start.assignment),
        "steps": [[s.vertex, s.new_colour] for s in seq.steps],
        "end": list(seq.end.assignment),
    }


def _cmd_recolour(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    a = _load_colouring(args.from_path, args.k, g.n)
    b = _load_colouring(args.to_path, args.k, g.n)
    cert = find_elimination_certificate(g)
    if cert is None:
        raise ValueError(
            f"{args.graph}: graph admits no elimination certificate (not compact)"
        )
    seq = recolour_compact(g, cert, a, b)
    _emit(_sequence_to_obj(seq), args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    obj = _load_sequence(args.seq)
    start_list: List[int] = obj["start"]
    if args.from_path is not None:
        if _int_array(_load_json(args.from_path), args.from_path) != start_list:
            raise ValueError(
                f"{args.from_path}: colouring disagrees with the start of {args.seq}"
            )
    colours = set(start_list) | set(obj["end"]) | {c for _, c in obj["steps"]}
    k = args.k if args.k is not None else (max(colours) + 1 if colours else 0)
    seq = RecolourSequence(
        Colouring(tuple(start_list), k),
        [RecolourStep(v, c) for v, c in obj["steps"]],
        Colouring(tuple(obj["end"]), k),
    )
    rep = validate_sequence(g, seq)
    counts = rep.per_vertex_counts
    report = {
        "report": "validate",
        "tool_version": __version__,
        "input_digest": _digest(args.graph),
        "ok": rep.ok,
        "message": rep.message,
        "error_index": rep.error_index,
        "total_steps": rep.total_steps,
        "per_vertex_counts": {str(v): c for v, c in sorted(counts.items())},
        "max_per_vertex": max(counts.values()) if counts else 0,
    }
    _emit(report, args.out)
    return 0 if rep.ok else 1


def _cmd_search_h(args: argparse.Namespace) -> int:
    stop_after = args.max_candidates if args.max_candidates > 0 else None
    rep = search_h(args.n, args.budget, args.seed, stop_after=stop_after)
    report = {
        "report": "search_h",
        "tool_version": __version__,
        "n": args.n,
        "seed": args.seed,
        "budget_seconds": args.budget,
        "budget_spent": round(rep.budget_spent, 3),
        "exhausted": rep.exhausted,
        "graphs_examined": rep.graphs_examined,
        "candidates": rep.candidates,
    }
    _emit(report, args.out)
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    _write(to_dot(load_graph(args.graph)), args.out)
    return 0


# -- parser ------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="recolouring",
        description="Explore reconfiguration graphs of graph colourings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate graphs")
    gensub = gen.add_subparsers(dest="generator", required=True)
    gk = gensub.add_parser("gk", help="the four-clique counterexample graph")
    gk.add_argument("--k", type=int, required=True)
    gk.add_argument("-o", "--out", default=None)
    gk.set_defaults(func=_cmd_gen)
    named = gensub.add_parser("named", help="standard small graphs")
    named.add_argument("--name", required=True)
    named.add_argument("--n", type=int, default=None)
    named.add_argument("-o", "--out", default=None)
    named.set_defaults(func=_cmd_gen)
    rnd = gensub.add_parser("random", help="seeded random graphs")
    rnd.add_argument("--n", type=int, required=True)
    rnd.add_argument("--p", type=float, default=0.5)
    rnd.add_argument("--seed", type=int, required=True)
    rnd.add_argument("--class", dest="graph_class", choices=("er", "cochordal"), default="er")
    rnd.add_argument("-o", "--out", default=None)
    rnd.set_defaults(func=_cmd_gen)

    rec = sub.add_parser("recognize", help="graph-class recognition report")
    rec.add_argument("graph")
    rec.add_argument("--compact-limit", type=int, default=12)
    rec.add_argument("-o", "--out", default=None)
    rec.set_defaults(func=_cmd_recognize)

    rcf = sub.add_parser("reconfig", help="materialize and summarize R_k")
    rcf.add_argument("graph")
    rcf.add_argument("--k", type=int, required=True)
    rcf.add_argument("--diameter", action="store_true")
    rcf.add_argument("--frozen", action="store_true")
    rcf.add_argument("--cap", type=int, default=DEFAULT_CAP)
    rcf.add_argument("--diameter-cap", type=int, default=DEFAULT_DIAMETER_CAP)
    rcf.add_argument("--dump-dot", default=None)
    rcf.add_argument("-o", "--out", default=None)
    rcf.set_defaults(func=_cmd_reconfig)

    rcl = sub.add_parser("recolour", help="emit a recolouring sequence")
    rcl.add_argument("graph")
    rcl.add_argument("--k", type=int, required=True)
    rcl.add_argument("--from", dest="from_path", required=True)
    rcl.add_argument("--to", dest="to_path", required=True)
    rcl.add_argument("-o", "--out", default=None)
    rcl.set_defaults(func=_cmd_recolour)

    val = sub.add_parser("validate", help="replay and check a sequence")
    val.add_argument("graph")
    val.add_argument("--from", dest="from_path", default=None)
    val.add_argument("--seq", required=True)
    val.add_argument("--k", type=int, default=None)
    val.add_argument("-o", "--out", default=None)
    val.set_defaults(func=_cmd_validate)

    sh = sub.add_parser("search-h", help="search for a non-compact witness")
    sh.add_argument("--n", type=int, default=8)
    sh.add_argument("--budget", type=float, default=600.0)
    sh.add_argument("--seed", type=int, default=0)
    sh.add_argument("--max-candidates", type=int, default=1, help="0 = unlimited")
    sh.add_argument("-o", "--out", default=None)
    sh.set_defaults(func=_cmd_search_h)

    dot = sub.add_parser("export-dot", help="export a graph as DOT")
    dot.add_argument("graph")
    dot.add_argument("-o", "--out", default=None)
    dot.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapacityError, GraphFormatError, ChromaticBoundExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
