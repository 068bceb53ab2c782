#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench from the enclosing checkout, runs
one workload, and prints the run's result as the last line of stdout.

    python3 perfbench/run.py --workload inmem-deep --seed 1 --seconds 15 --trace 0

Every workload prints every end-to-end metric of BENCHMARK.json. With
--trace 1 the run probes every layer (see perfbench/src/probes.h), writes
the spans to .bench_build/trace/, and every per-layer metric is computed
here from that file. --tiny swaps in the smoke-test inputs (see
perfbench/smoke_test.py). Everything the run builds or writes stays under
.bench_build/ in the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median as med

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

WORKLOADS = ("inmem-deep", "inmem-wide", "external-tight", "serve-open")

SERVE_COMMANDS = ("truss", "maxk", "comm", "top", "members")

MIB = 1024.0 * 1024.0


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then (re)builds perfbench; returns its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


class SpanIndex:
    """Spans of one trace file, with the lookups the metrics need."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for s in spans:
            self.children[s["parent"]].append(s)

    def named(self, name, parent=None, **args):
        pool = self.children[parent["id"]] if parent is not None else self.spans
        return [s for s in pool if s["name"] == name and
                all(s["args"].get(k) == v for k, v in args.items())]

    def child(self, span, name):
        return self.named(name, parent=span)[0]

    @staticmethod
    def dur(span):
        return (span["end_us"] - span["start_us"]) / 1e6

    def self_time(self, span):
        """Duration minus the part of it that child spans cover."""
        lo, hi = span["start_us"], span["end_us"]
        covered, reach = 0.0, lo
        for c in sorted(self.children[span["id"]], key=lambda c: c["start_us"]):
            end = min(c["end_us"], hi)
            if end > reach:
                covered += end - max(c["start_us"], reach)
                reach = end
        return (hi - lo - covered) / 1e6


def inmem_layers(ix):
    p4 = ix.named("truss.ParallelTrussDecomposition", threads=4)
    p1 = ix.named("truss.ParallelTrussDecomposition", threads=1)
    sublevels = [ix.named("truss.peel.sublevel", parent=ix.child(p, "truss.peel"))
                 for p in p4]
    ingest = ix.named("graph.ReadSnapEdgeList")
    engine = ix.named("engine.Decompose", threads=4)
    return {
        "common.fork_join_us":
            med([ix.self_time(s) for s in ix.named("common.RunShards")]) * 1e6,
        "graph.ingest_s": med([ix.self_time(s) for s in ingest]),
        "graph.ingest_cpu_s": med([s["args"]["cpu_s"] for s in ingest]),
        "graph.input_mb": ingest[0]["args"]["input_bytes"] / MIB,
        "triangle.dodg_s": med([ix.self_time(s) for s in ix.named("triangle.Dodg")]),
        "triangle.support_s": med([ix.self_time(s) for s in
                                   ix.named("triangle.ComputeEdgeSupports", threads=4)]),
        "triangle.support_t1_s": med([ix.self_time(s) for s in
                                      ix.named("triangle.ComputeEdgeSupports", threads=1)]),
        "triangle.triangles":
            ix.named("triangle.ComputeEdgeSupports")[0]["args"]["triangles"],
        "truss.support_s": med([ix.dur(ix.child(p, "truss.support")) for p in p4]),
        "truss.peel_s": med([ix.dur(ix.child(p, "truss.peel")) for p in p4]),
        "truss.peel_t1_s": med([ix.dur(ix.child(p, "truss.peel")) for p in p1]),
        "truss.peel_sublevels": med([len(levels) for levels in sublevels]),
        "truss.sublevel_us_p50":
            med([ix.dur(s) for levels in sublevels for s in levels]) * 1e6,
        "truss.sublevel_us_max":
            med([max(ix.dur(s) for s in levels) for levels in sublevels]) * 1e6,
        "truss.peak_structure_mb":
            med([p["args"]["peak_structure_bytes"] for p in p4]) / MIB,
        "engine.decompose_s": med([ix.dur(s) for s in engine]),
        "engine.overhead_s": med([ix.self_time(s) for s in engine]),
    }


def external_layers(ix):
    out = {}
    for algo in ("bottomup", "topdown"):
        jobs = ix.named("engine.DecomposeFile", algo=algo)
        arg = lambda key: med([j["args"][key] for j in jobs])  # noqa: E731
        out.update({
            f"truss.{algo}.lower_bound_s":
                med([ix.dur(ix.child(j, "truss.lower_bound")) for j in jobs]),
            f"truss.{algo}.kstages_s":
                med([ix.dur(ix.child(j, "truss.kstages")) for j in jobs]),
            f"truss.{algo}.lb_iterations": arg("lb_iterations"),
            f"truss.{algo}.overflows": arg("overflows"),
            f"partition.{algo}.parts": arg("parts"),
            f"io.{algo}.block_reads": arg("block_reads"),
            f"io.{algo}.block_writes": arg("block_writes"),
            f"io.{algo}.mb_read": arg("bytes_read") / MIB,
            f"io.{algo}.mb_written": arg("bytes_written") / MIB,
        })
    return out


def serve_layers(ix):
    builds = ix.named("serve.TrussIndex.Build")
    rebuilds = ix.named("serve.SnapshotRebuilder.RebuildAndPublish")
    per_call = lambda name: med([ix.dur(s) / s["args"]["calls"]  # noqa: E731
                                 for s in ix.named(name)]) * 1e9
    stats = ix.named("serve.TrussServer.stats")[0]["args"]
    out = {
        "serve.index_build_s": med([ix.self_time(s) for s in builds]),
        "serve.index_mb": builds[0]["args"]["index_bytes"] / MIB,
        "serve.rebuild_decompose_s":
            med([ix.dur(ix.child(s, "engine.Decompose")) for s in rebuilds]),
        "serve.lookup_ns": per_call("serve.TrussIndex.lookup"),
        "serve.handle_line_ns": per_call("serve.TrussServer.HandleLine"),
        "serve.queries": stats["queries"],
        "serve.errors": stats["errors"],
    }
    for cmd in SERVE_COMMANDS:
        out[f"serve.rtt_{cmd}_p50_us"] = med(
            [ix.dur(s) for s in ix.named("serve.request", cmd=cmd)]) * 1e6
    return out


def layer_metrics(trace_file):
    """Per-layer metric name -> value, from a traced run's span file."""
    with open(trace_file) as f:
        ix = SpanIndex(json.load(f)["spans"])
    return {**inmem_layers(ix), **external_layers(ix), **serve_layers(ix)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test inputs instead of the full recipes")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no truss sources next to {HERE.name}/ (expected {ROOT}/src)")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    # SIGTERM unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    out_dir = ROOT / ".bench_build"
    try:
        binary = build(out_dir / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    work_dir = out_dir / "work" / f"{args.workload}-{os.getpid()}"
    tmp_dir = out_dir / "tmp"
    trace_file = out_dir / "trace" / f"{args.workload}-seed{args.seed}.json"
    for d in (work_dir, tmp_dir, trace_file.parent):
        d.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--trace-out", str(trace_file)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if args.trace:
        result["metrics"] = {name: {"value": value, "unit": units.get(name)}
                             for name, value in layer_metrics(trace_file).items()}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        log(f"metrics {got} differ from BENCHMARK.json's {units}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
