"""Benchmark runner: one workload, one process, one client in a closed loop.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 12 --trace 0

Run from the repository root.  Set-up imports the package from ``src/``,
generates the seeded corpus into a fresh directory under ``.bench_work/`` and
runs one warm-up instance; it is repeated ``SETUPS`` times and the median is
reported.  The timed loop then drives the corpus through
``recolouring.cli.main(argv)`` in-process, one instance at a time, in whole
passes, until at least ``--seconds`` of instance time and ``MIN_PASSES``
passes have been measured.  An instance's latency is the wall time of all the
calls it makes; its oracle runs after the clock stops.

Timings are reported at reference speed.  On shared virtual machines the
effective CPU speed drifts by tens of percent over seconds to minutes (on a
2-vCPU VM, one fixed pure-Python loop averaged 88 to 108 ms over successive
16 s windows), more than the changes the benchmark must resolve.  So a fixed
pure-Python reference task is timed right before and right after every
instance and every set-up, and each wall time is scaled by
``REFERENCE_S / mean(reference times)``.  The raw figures are printed on the
line before the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also makes one
traced pass (spans around each layer's public functions, see spans.py) and a
tracemalloc probe, and prints the per-layer metrics instead.  Metric names
and units come from ``BENCHMARK.json``; per-workload facts (tail percentile,
layers, baseline mapping) from ``perfbench/workloads.json``.  The last line
of standard output is one JSON object; the line before it carries the output
digest, which repeats exactly for a given seed and program output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUPS = 3
MIN_PASSES = 2
REFERENCE_S = 0.002
# explorer.bytes_per_node is probed on the largest R_k of the corpus up to
# this many nodes, so that R_4(C_10) is the probe on reconfig-scale
BYTES_PROBE_MAX_NODES = 60_000

sys.path.insert(0, HERE)
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

BUDGET_SPENT = re.compile(rb'"budget_spent":\s*[-+0-9.eE]+')


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_s() -> float:
    """Best of three timings of a fixed task of integer, tuple and dict work,
    the operations the package spends its time on."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        table: Dict[Tuple[int, int], int] = {}
        acc = 0
        for i in range(6_000):
            key = (i & 1023, i >> 10)
            table[key] = table.get(key, 0) + (i * i) % 7
            acc = (acc << 1 | i.bit_count()) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(work: Callable[[], Any]) -> Tuple[float, float, Any]:
    """Run ``work``; returns (raw wall time, scaled wall time, its result)."""
    before = reference_s()
    start = time.perf_counter()
    result = work()
    raw = time.perf_counter() - start
    after = reference_s()
    return raw, raw * REFERENCE_S / ((before + after) / 2), result


# -- the package under test ---------------------------------------------------------


class Package:
    """A fresh import of the package and the entry points the benchmark calls.
    Names are looked up at call time, because the tracer rebinds them."""

    def __init__(self) -> None:
        for key in [k for k in sys.modules if k == "recolouring" or k.startswith("recolouring.")]:
            del sys.modules[key]
        self.root = importlib.import_module("recolouring")
        if not os.path.abspath(self.root.__file__).startswith(SRC + os.sep):
            fail(f"imported recolouring from {self.root.__file__}, not from src/")
        self.cli = importlib.import_module("recolouring.cli")
        self.io = importlib.import_module("recolouring.io")

    def main(self, argv: List[str]) -> int:
        return self.cli.main(argv)

    def bfs_distance(self, path: str, k: int, a: List[int], b: List[int]) -> Optional[int]:
        g = self.io.load_graph(path)
        colouring = self.root.Colouring
        return self.root.bfs_distance(g, k, colouring(tuple(a), k), colouring(tuple(b), k))

    def is_frozen(self, n: int, edges, col: List[int], k: int) -> bool:
        g = self.root.Graph(n, [tuple(e) for e in edges])
        try:
            return self.root.is_frozen(g, self.root.Colouring(tuple(col), k))
        except ValueError:  # not proper
            return False

    def verify_witness(self, cand: Dict[str, Any]) -> Optional[str]:
        r = self.root
        g = r.Graph(cand["n"], [tuple(e) for e in cand["edges"]])
        if r.chromatic_number(g) != 4:
            return "chromatic number is not 4"
        if any(r.contains_induced(g, p) is not None for p in ("p5", "p5_complement", "c5")):
            return "contains a forbidden pattern"
        if not r.is_weakly_chordal(g):
            return "not weakly chordal"
        if r.is_compact_bruteforce(g).compact:
            return "compact"
        return None


# -- one instance -------------------------------------------------------------------


def output_files(inst: W.Instance) -> List[str]:
    return [argv[argv.index("-o") + 1] for argv, _ in inst.calls if "-o" in argv]


def run_instance(pkg: Package, inst: W.Instance) -> Tuple[W.Outputs, Optional[str]]:
    """Run every call of one instance; returns its outputs and the first
    error (wrong exit code or exception), if any."""
    stdout: List[str] = []
    stderr: List[str] = []
    dist = None
    try:
        for argv, expected in inst.calls:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = pkg.main(argv)
                except SystemExit as exc:
                    code = exc.code
            stdout.append(out.getvalue())
            stderr.append(err.getvalue())
            if code != expected:
                message = err.getvalue().strip()
                return W.Outputs(stdout, stderr, dist), f"{argv[0]} exited {code}, expected {expected}: {message}"
        if inst.bfs is not None:
            dist = pkg.bfs_distance(*inst.bfs)
    except Exception as exc:  # an instance that raises is counted as failed
        return W.Outputs(stdout, stderr, dist), f"{type(exc).__name__}: {exc}"
    return W.Outputs(stdout, stderr, dist), None


def check(pkg: Package, workload: str, inst: W.Instance, out: W.Outputs) -> Optional[str]:
    try:
        if workload == "certify":
            return W.check_certify(inst, out)
        if workload == "recognize":
            return W.check_recognize(inst, out, pkg.verify_witness)
        return W.check_reconfig(inst, out, pkg.is_frozen)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def digest_instance(h: "hashlib._Hash", inst: W.Instance, out: W.Outputs) -> None:
    """Feed everything the instance produced into the digest, with the one
    wall-clock field (search-h's budget_spent) blanked."""
    h.update(f"{inst.prefix()}|{len(out.stdout)}|{out.bfs}\n".encode())
    for text in out.stdout:
        h.update(BUDGET_SPENT.sub(b'"budget_spent": null', text.encode()))
    for name in output_files(inst):
        if os.path.exists(name):
            with open(name, "rb") as fh:
                h.update(name.encode() + b"\n" + BUDGET_SPENT.sub(b'"budget_spent": null', fh.read()))


# -- set-up and passes -----------------------------------------------------------------


class Run:
    """Everything one process measures: set-ups, passes, failures."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.setup_raw: List[float] = []
        self.setup_scaled: List[float] = []
        self.directories: List[str] = []
        self.raw: List[float] = []
        self.scaled: List[float] = []
        self.first_pass: List[float] = []  # scaled latencies of the first pass
        self.digests: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def note_failure(self, what: str, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {error}")

    def setup(self) -> Tuple[Package, W.Corpus, str]:
        """Import, generate, write, warm up; the warm-up is checked after."""
        def work() -> Tuple[Package, W.Corpus, str, W.Outputs, Optional[str]]:
            pkg = Package()
            corpus = W.build(self.workload, self.seed)
            directory = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=WORK)
            self.directories.append(directory)
            for name, text in corpus.files.items():
                with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            os.chdir(directory)
            out, error = run_instance(pkg, corpus.warmup())
            return pkg, corpus, directory, out, error

        try:
            raw, scaled, (pkg, corpus, directory, out, error) = at_reference_speed(work)
            warm = corpus.warmup()
            error = error or check(pkg, self.workload, warm, out)
        finally:
            os.chdir(ROOT)
        self.setup_raw.append(raw)
        self.setup_scaled.append(scaled)
        if error:
            self.errors.append(f"warm-up {warm.prefix()}: {error}")
        return pkg, corpus, directory

    def run_pass(self, pkg: Package, corpus: W.Corpus, tracer: Optional[Tracer] = None) -> Tuple[List[float], List[float]]:
        """One pass in the current directory; returns raw and scaled latencies."""
        h = hashlib.sha256()
        raw: List[float] = []
        scaled: List[float] = []
        for inst in corpus.instances:
            for name in output_files(inst):
                if os.path.exists(name):
                    os.remove(name)
            if tracer is not None:
                tracer.instance = inst.ident
                tracer.active = True  # the oracle below stays out of the trace
            r, s, (out, error) = at_reference_speed(lambda: run_instance(pkg, inst))
            if tracer is not None:
                tracer.active = False
            raw.append(r)
            scaled.append(s)
            self.attempted += 1
            error = error or check(pkg, corpus.workload, inst, out)
            if error:
                self.note_failure(f"{inst.prefix()} ({inst.family}, n={inst.n})", error)
            digest_instance(h, inst, out)
        self.digests.append(h.hexdigest())
        return raw, scaled

    def timed_loop(self, pkg: Package, corpus: W.Corpus, seconds: float) -> None:
        while len(self.digests) < MIN_PASSES or sum(self.raw) < seconds:
            raw, scaled = self.run_pass(pkg, corpus)
            self.first_pass = self.first_pass or scaled
            self.raw.extend(raw)
            self.scaled.extend(scaled)


# -- metrics -------------------------------------------------------------------------


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def tail_percentile(samples: int) -> int:
    """Highest multiple of 5 below 100 leaving at least 10 samples beyond it."""
    return max(
        (p for p in range(5, 100, 5) if samples - math.ceil(p / 100 * samples) >= 10),
        default=0,
    )


def loglog_slope(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 without two sizes."""
    if len({x for x, _ in points}) < 2:
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    return statistics.linear_regression(xs, ys).slope


def end_to_end(run: Run, tail_pct: int) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(run.setup_scaled),
        "instances_per_s": len(run.scaled) / sum(run.scaled),
        "latency_p50_ms": 1000 * statistics.median(run.scaled),
        "latency_tail_ms": 1000 * percentile(run.scaled, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def bytes_per_node(pkg: Package, corpus: W.Corpus) -> float:
    """Memory R_k retains per node, by tracemalloc, on the largest reconfig
    instance up to BYTES_PROBE_MAX_NODES nodes; 0 for corpora without R_k."""
    probes = [
        inst for inst in corpus.instances
        if inst.calls[0][0][0] == "reconfig" and inst.facts["count"] <= BYTES_PROBE_MAX_NODES
    ]
    if not probes:
        return 0.0
    inst = max(probes, key=lambda i: (i.facts["count"], -i.ident))
    g = pkg.root.Graph(inst.n, inst.edges)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        r = pkg.root.build_reconfiguration_graph(g, inst.facts["k"])
        retained = tracemalloc.get_traced_memory()[0] - before
        nodes = r.node_count()
        del r
    finally:
        tracemalloc.stop()
    return retained / nodes


def per_layer(run: Run, pkg: Package, corpus: W.Corpus, directory: str) -> Dict[str, float]:
    """One traced pass over the corpus, then the tracemalloc probe."""
    tracer = Tracer()

    def on_build(r: Any) -> None:
        tracer.count("explorer.nodes", r.node_count())
        tracer.count("explorer.edges", sum(len(row) for row in r.adjacency) // 2)

    def on_cert(cert: Any) -> None:
        tracer.count("recolour.certificate_events", len(cert.events) if cert else 0)

    def on_sequence(seq: Any) -> None:
        tracer.count("recolour.sequence_steps", len(seq.steps))

    tracer.install({
        "explorer.build_reconfiguration_graph": on_build,
        "recolour.find_elimination_certificate": on_cert,
        "recolour.recolour_compact": on_sequence,
    })
    os.chdir(directory)
    try:
        raw, scaled = run.run_pass(pkg, corpus, tracer)
    finally:
        tracer.remove()
        os.chdir(ROOT)
    tracer.dump(os.path.join(WORK, f"spans-{run.workload}-seed{run.seed}.json"))

    wall = sum(raw)
    m: Dict[str, float] = {}
    for name in tracer.calls:
        m[f"{name}.calls"] = tracer.calls[name]
        m[f"{name}.self_s"] = tracer.self_s[name]
    for key in ("explorer.nodes", "explorer.edges", "recolour.certificate_events",
                "recolour.sequence_steps"):
        m[key] = tracer.counts.get(key, 0)
    for layer, value in tracer.layer_self_s().items():
        m[f"{layer}.self_s"] = value
        m[f"{layer}.share"] = value / wall
    by_id = {inst.ident: inst for inst in corpus.instances}
    m["recolour.certificate.scaling_exponent"] = loglog_slope([
        (by_id[i].n, d) for i, d in tracer.spans_named("recolour.find_elimination_certificate")
        if by_id[i].family in ("path", "tree")
    ])
    m["explorer.summarize.scaling_exponent"] = loglog_slope([
        (by_id[i].facts["count"], d) for i, d in tracer.spans_named("explorer.summarize")
        if corpus.workload == "reconfig-diameter"
    ])
    m["trace_overhead_ratio"] = sum(scaled) / sum(run.first_pass)
    m["explorer.bytes_per_node"] = bytes_per_node(pkg, corpus)
    m["failed_ratio"] = run.failed / run.attempted
    return m


# -- main ------------------------------------------------------------------------------


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "recolouring", "__init__.py")):
        fail(f"no package source at {os.path.join(SRC, 'recolouring')}; run from a checkout")
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    meta = load_json(os.path.join(HERE, "workloads.json"))[args.workload]
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)

    run = Run(args.workload, args.seed)
    try:
        for _ in range(SETUPS):
            pkg, corpus, directory = run.setup()
        if len(corpus.instances) != meta["instances_per_pass"]:
            fail(f"corpus has {len(corpus.instances)} instances, workloads.json says "
                 f"{meta['instances_per_pass']}")
        tail_pct = meta["tail_percentile"]
        if tail_percentile(MIN_PASSES * len(corpus.instances)) != tail_pct:
            fail("tail_percentile in workloads.json does not match the instance count")
        os.chdir(directory)
        try:
            run.timed_loop(pkg, corpus, args.seconds)
        finally:
            os.chdir(ROOT)
        if args.trace:
            values, wanted = per_layer(run, pkg, corpus, directory), bench["per_layer"]
        else:
            values, wanted = end_to_end(run, tail_pct), bench["end_to_end"]
    finally:
        os.chdir(ROOT)
        for directory in run.directories:
            shutil.rmtree(directory, ignore_errors=True)

    if len(set(run.digests)) != 1:
        run.errors.append(f"output digest differs between passes: {run.digests}")
    for line in run.errors:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    missing = [spec["name"] for spec in wanted if spec["name"] not in values]
    if missing:
        fail(f"metrics not measured: {missing}")
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"timed_passes={len(run.raw) // len(corpus.instances)} "
        f"samples={len(run.raw)} tail=p{tail_pct} "
        f"raw_instances_per_s={len(run.raw) / sum(run.raw):.4f} "
        f"raw_latency_p50_ms={1000 * statistics.median(run.raw):.3f} "
        f"raw_setup_s={statistics.median(run.setup_raw):.4f} "
        f"output_digest={run.digests[0]}"
    )
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
