#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it asserts that an untraced run
prints exactly the end-to-end metrics and a traced run exactly the
per-layer metrics, each with the unit BENCHMARK.json gives it, and that
both pass all their checks; that the traced count metrics
(truss.peel_sublevels, io.bottomup.block_reads, ...) repeat exactly for the
same seed; and that run.py fails without printing a result in a directory
holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SEED = 7


def invoke(root, workload, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [{m["name"]: m["unit"] for m in bench[key]}
                for key in ("end_to_end", "per_layer")]
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            print(f"FAIL {what}", flush=True)

    workloads = [w["name"] for w in bench["workloads"]]
    expect(sorted(workloads) == sorted(run.WORKLOADS), "workloads match run.WORKLOADS")

    for workload in workloads:
        runs = [(0, invoke(ROOT, workload, 0)),
                (1, invoke(ROOT, workload, 1)),
                (1, invoke(ROOT, workload, 1))]
        traced = []
        for trace, proc in runs:
            tag = f"{workload} trace={trace}"
            result = result_of(proc)
            expect(result is not None, f"{tag} printed a result ({proc.stderr[-400:]})")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1, f"{tag} checks pass")
            units = declared[trace]
            expect(set(result["metrics"]) == set(units), f"{tag} metric set")
            for name, metric in result["metrics"].items():
                expect(metric["unit"] == units.get(name), f"{tag} {name} unit")
                value = metric["value"]
                expect(isinstance(value, (int, float)) and math.isfinite(value) and
                       (value >= 0 if trace else value > 0), f"{tag} {name} value")
            if trace:
                traced.append(result["metrics"])
            print(f"ok   {tag}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} checked operations", flush=True)
        # serve.* counts follow the run's length; every other count is a
        # function of the seed alone.
        if len(traced) == 2:
            expect(set(traced[0]) == set(traced[1]),
                   f"{workload} traced metric set repeats")
            for name, metric in traced[0].items():
                if metric["unit"] == "count" and not name.startswith("serve."):
                    expect(metric["value"] == traced[1][name]["value"],
                           f"{workload} {name} repeats for one seed")


    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke(bare, workloads[0], 0)
        expect(proc.returncode != 0 and result_of(proc) is None and
               not proc.stdout.strip(), "bare directory fails without a result")

    print("smoke test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
