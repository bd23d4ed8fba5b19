"""Graph serialization: JSON, DIMACS .col import, DOT export."""

from __future__ import annotations

import json
from typing import Any, Dict

from .graph import Graph


class GraphFormatError(ValueError):
    """Raised on malformed graph input."""


# The loaders refuse larger graphs before any allocation.  Each bitset row
# takes up to n/8 bytes, so the largest graph accepted can hold about 0.3 GB
# of adjacency (0.6 GB with the complement that recognition builds).
MAX_VERTICES = 50_000


def graph_to_json_obj(g: Graph) -> Dict[str, Any]:
    obj: Dict[str, Any] = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels:
        obj["labels"] = {str(v): lab for v, lab in sorted(g.labels.items())}
    return obj


def graph_from_json_obj(obj: Any) -> Graph:
    if not isinstance(obj, dict):
        raise GraphFormatError("graph JSON must be an object")
    if "n" not in obj or "edges" not in obj:
        raise GraphFormatError('graph JSON requires fields "n" and "edges"')
    n = obj["n"]
    if type(n) is not int or n < 0:
        raise GraphFormatError('"n" must be a non-negative integer')
    if n > MAX_VERTICES:
        raise GraphFormatError(f'"n" = {n} exceeds the limit of {MAX_VERTICES}')
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise GraphFormatError('"edges" must be an array')
    rows = [0] * n
    for e in raw_edges:
        # JSON integers load as exactly int; bool, a subclass of int, is rejected
        if not isinstance(e, list) or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
            raise GraphFormatError(f"bad edge entry: {e!r}")
        u, v = e
        if u == v:
            raise GraphFormatError(f"self-loop on vertex {u}")
        if not u < v:
            raise GraphFormatError(f"edge [{u}, {v}] must satisfy u < v")
        if not (0 <= u and v < n):
            raise GraphFormatError(f"edge [{u}, {v}] out of range for n={n}")
        if (rows[u] >> v) & 1:
            raise GraphFormatError(f"duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    raw_labels = {} if obj.get("labels") is None else obj["labels"]
    if not isinstance(raw_labels, dict):
        raise GraphFormatError('"labels" must be an object')
    labels = {}
    for key, lab in raw_labels.items():
        # only the form graph_to_json_obj writes, so no two keys name one id
        try:
            vid = int(key)
        except ValueError:
            vid = None
        if vid is None or key != str(vid):
            raise GraphFormatError(f"label key {key!r} is not a decimal id")
        if not (0 <= vid < n) or not isinstance(lab, str):
            raise GraphFormatError(f"bad label entry {key!r}: {lab!r}")
        labels[vid] = lab
    return Graph._from_rows(n, rows, labels)


def graph_to_json(g: Graph) -> str:
    return json.dumps(graph_to_json_obj(g), sort_keys=True)


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    # ValueError covers JSONDecodeError and integers past the digit limit;
    # RecursionError, arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    return graph_from_json_obj(obj)


def _dimacs_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: {what} {token!r} is not an integer"
        ) from None


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS .col ("p edge n m" / "e u v", 1-based ids) to a Graph."""
    n = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                raise GraphFormatError(f"line {lineno}: bad problem line")
            n = _dimacs_int(parts[2], lineno, "vertex count")
            if n < 0 or _dimacs_int(parts[3], lineno, "edge count") < 0:
                raise GraphFormatError(f"line {lineno}: negative count")
            if n > MAX_VERTICES:
                raise GraphFormatError(
                    f"line {lineno}: vertex count {n} exceeds the limit of {MAX_VERTICES}"
                )
            rows = [0] * n
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: bad edge line")
            u = _dimacs_int(parts[1], lineno, "vertex id") - 1
            v = _dimacs_int(parts[2], lineno, "vertex id") - 1
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {lineno}: vertex out of range")
            # repeated and reversed edges are legal DIMACS and set the same bits
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing problem line")
    return Graph._from_rows(n, rows, {})


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        if v in g.labels:
            label = g.labels[v].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> Graph:
    """Load a graph file; .col is treated as DIMACS, anything else as JSON.

    A file that is not UTF-8 text or not a well-formed graph raises
    GraphFormatError with the path in front of the message.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if path.endswith(".col"):
            return parse_dimacs(text)
        return graph_from_json(text)
    except (GraphFormatError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
