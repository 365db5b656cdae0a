"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/repeat.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads NAME ...]
                            [--trace 0|1] [--out bench/baseline.json]

Each (workload, seed) pair runs ``bench/run.py`` in its own process, one at
a time, for the ``run_seconds`` of ``BENCHMARK.json``.  For every metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median.  With ``--out`` the summary is stored in that
JSON file under ``trace_0`` or ``trace_1`` (the other mode's section is
kept), together with the machine's ``nproc`` and the numpy and Python
versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None, "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    section = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
               "workloads": {}}
    for workload in args.workloads:
        results = [run_once(workload, s, spec["run_seconds"], args.trace)
                   for s in args.seeds]
        if not all(r["correct"] for r in results):
            print(f"{workload}: a run reported incorrect output", file=sys.stderr)
            return 1
        summary = summarise(results)
        section["workloads"][workload] = summary
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] is None else \
                ("  over bound" if s["spread"] > bound else
                 "  over bound/3" if s["spread"] > bound / 3 else "")
            print(f"{workload:20s} {name:28s} median {s['median']:<12.6g} "
                  f"spread {s['spread'] if s['spread'] is not None else 'n/a':.4}"
                  f" {s['unit']}{flag}", flush=True)
    if args.out:
        out = Path(args.out)
        report = json.loads(out.read_text()) if out.exists() else {}
        report.update({"nproc": os.cpu_count(), "numpy": np.__version__,
                       "python": platform.python_version(),
                       f"trace_{args.trace}": section})
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
