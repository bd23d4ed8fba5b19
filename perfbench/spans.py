"""In-memory spans around the public functions of each package layer.

The wrappers live in the benchmark, not in the package: ``Tracer.install``
rebinds each target function in every ``recolouring`` module namespace that
holds it (so calls through ``from .x import f`` bindings are seen too), and
``Tracer.remove`` puts the originals back.  Spans are kept in flat arrays and
written out once, when the run ends.  Self time (a span's duration minus the
time its child spans cover) is accumulated as spans close.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# Layer -> public functions wrapped.  Cheap inner helpers (bits, mask_of,
# component_mask, is_clique, is_complete, is_connected, Graph methods) are
# left out on purpose: their cost stays in the caller's self time, and
# wrapping them would make the tracer the largest cost in the run.  The same
# holds for find_hole, find_antihole and subgraph_passes_compactness, whose
# time belongs to is_weakly_chordal, is_co_chordal and is_compact_bruteforce.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "graph": (
        "complement", "induced_subgraph", "remove_vertices",
        "connected_components", "is_anticonnected", "has_long_chordless_path",
    ),
    "io": ("load_graph", "parse_dimacs", "graph_from_json", "to_dot"),
    "recognition": (
        "find_two_pairs", "qualifying_two_pair", "is_weakly_chordal",
        "is_co_chordal", "contains_induced", "find_k_colouring",
        "chromatic_number", "is_compact_bruteforce",
        "two_pair_via_anticonnected_set",
    ),
    "explorer": (
        "enumerate_colourings", "build_reconfiguration_graph", "summarize",
        "is_frozen", "find_frozen_colourings",
    ),
    "recolour": (
        "find_elimination_certificate", "recolour_complete", "recolour_compact",
        "validate_sequence", "bfs_distance",
    ),
    "generators": (
        "generate_gk", "generate_named", "random_graph", "random_cochordal",
        "search_h",
    ),
    "cli": ("main",),
}
LAYERS = tuple(TARGETS)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.instance = -1
        self.active = False  # spans are recorded only while an instance runs
        self._stack: List[int] = []
        self._child: List[float] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_instance.append(self.instance)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self._stack.pop()
        child = self._child.pop()
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._child:
            self._child[-1] += duration

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None) -> Callable:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    # -- installation -----------------------------------------------------------

    def install(self, hooks: Dict[str, Callable]) -> None:
        """Wrap every target present in the loaded package.  A target that no
        longer exists keeps its zero counters instead of failing."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "recolouring" or key.startswith("recolouring."))
        ]
        for layer, functions in TARGETS.items():
            home = sys.modules.get(f"recolouring.{layer}")
            for fname in functions:
                name = f"{layer}.{fname}"
                self.calls.setdefault(name, 0)
                self.self_s.setdefault(name, 0.0)
                original = getattr(home, fname, None) if home else None
                if not callable(original):
                    continue
                wrapper = self.wrap(name, original, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- results ------------------------------------------------------------------

    def spans_named(self, name: str) -> List[Tuple[int, float]]:
        """(instance id, duration) of every span with the given name."""
        nid = self.name_id.get(name)
        return [
            (self.span_instance[i], self.span_end[i] - self.span_start[i])
            for i in range(len(self.span_name))
            if self.span_name[i] == nid
        ]

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            totals[name.split(".", 1)[0]] += value
        return totals

    def dump(self, path: str) -> None:
        spans = [
            [self.span_name[i], self.span_parent[i], self.span_instance[i],
             self.span_start[i], self.span_end[i]]
            for i in range(len(self.span_name))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "fields": ["name", "parent", "instance", "start", "end"],
                 "spans": spans},
                fh,
            )
