"""Steadiness mode: run the benchmark on several seeds and report each
metric's run-to-run spread against its bound.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--trace 0|1]

Runs `perfbench/run.py` once per (workload, seed), for seeds 1..--seeds, one
at a time, with the run length from BENCHMARK.json.  For every metric it
prints the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median; an end-to-end metric's spread is marked "within
bound" or "TOO WIDE" against its bound.  Exits 1 if a run fails or is not
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description="run-to-run spread of every metric")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(1, args.seeds + 1):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                             if k in bounds or args.trace),
                  flush=True)
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(k)
            verdict = ""
            if bound is not None:
                verdict = f"  bound {bound}  " + ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {workload:<22} {k:<32} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}{verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
