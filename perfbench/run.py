"""synsetgeom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It generates the workload's inputs from the
seed, runs `python -m synsetgeom.cli ...` as fresh child processes (one at
a time) for about S seconds, takes each child's CPU time and peak RSS from
wait4, scales CPU times to a reference host speed measured by probe.py in
the same run, checks every output, and prints a readable report followed
by one JSON line with the metrics named in BENCHMARK.json: the
end-to-end ones with --trace 0, the per-layer ones (from one extra traced
run) with --trace 1.  A full record with the environment and the input
properties is written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

SETUP_SPAWNS = 11  # least number of `import synsetgeom.cli` and probe processes per run
# About the probe's median CPU time on the 2-vCPU Xeon VM the benchmark was
# written on, so that scaled figures read close to that machine's seconds.
PROBE_REF_S = 0.30
MIN_INVOCATIONS = 2  # byte-identity needs two outputs
DEADLINE_S = 170  # the whole run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    out: bytes
    err: bytes


def child_env() -> dict:
    """The package from this checkout's src/, and one BLAS thread: the CLI
    does not use BLAS-level parallelism, and idle BLAS workers spin, adding
    CPU time that varies with scheduling."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv, env, workdir, deadline) -> Child:
    """Run one child to completion; wall time as the parent sees it, and the
    child's own CPU time (user + system) and peak RSS from wait4."""
    out_path, err_path = os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read()
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6,
                 proc.returncode, stdout, stderr)


def _read(path, default=""):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return default


def environment(nproc: int, env: dict) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, idx, "level")).strip()
        if level and _read(os.path.join(base, idx, "type")).strip() != "Instruction":
            caches[int(level)] = _read(os.path.join(base, idx, "size")).strip()
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS},
        "cpu": cpu,
        "llc": caches[max(caches)] if caches else "unknown",
        "commit": commit,
    }


def judge(inputs, children, oracle, seed):
    """(attempted, failed, notes) over every invocation: the first output is
    checked in full, every later one must be byte-identical to it."""
    ops = len(check.operations(inputs))
    ref, ref_failed, failed, notes = None, 0, 0, []
    for i, c in enumerate(children):
        if c.rc != 0:
            failed += ops
            notes.append(f"invocation {i}: exit {c.rc}: {c.err.decode('utf-8', 'replace')[-500:]}")
        elif ref is None:
            ref = c.out
            report = check.check(inputs, c.out, oracle, seed)
            ref_failed = len(report.failed)
            failed += ref_failed
            notes += report.notes
        elif c.out != ref:
            failed += ops
            notes.append(f"invocation {i}: output differs from the first invocation")
        else:
            failed += ref_failed
    return ops * len(children), failed, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "synsetgeom", "cli.py")):
        print(f"error: {ROOT} has no src/synsetgeom; run from a synsetgeom checkout",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "tests", "oracle.py")):
        print("error: tests/oracle.py, the reference for the output check, is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        t0 = time.perf_counter()
        inputs = gen.generate(args.workload, args.seed, workdir)
        gen_s = time.perf_counter() - t0

        import_argv = [sys.executable, "-c", "import synsetgeom.cli"]
        probe_argv = [sys.executable, os.path.join(HERE, "probe.py")]
        cli_argv = [sys.executable, "-m", "synsetgeom.cli", *inputs.argv]
        for argv in (import_argv, probe_argv):  # warm the page cache and .pyc files
            warm = spawn(argv, env, workdir, deadline)
            if warm.rc != 0:
                print(f"error: {' '.join(argv[1:])} failed:\n"
                      + warm.err.decode("utf-8", "replace"), file=sys.stderr)
                return 1

        # Rounds of probe, import and command, closed by one more probe.  A
        # round's import and command are scaled by the mean of the probes on
        # either side of it, which met the host at nearly the same time.
        # Another round starts only while it is expected to end within
        # --seconds, so a run lasts about --seconds whatever one command
        # costs; rounds without a command then bring the imports up to
        # SETUP_SPAWNS.
        probes, setup, children = [], [], []
        t0 = time.perf_counter()
        while len(children) < MIN_INVOCATIONS or (
            time.perf_counter() - t0 + statistics.median(c.wall_s for c in children)
            + setup[-1].wall_s + probes[-1].wall_s <= args.seconds
        ):
            probes.append(spawn(probe_argv, env, workdir, deadline))
            setup.append(spawn(import_argv, env, workdir, deadline))
            children.append(spawn(cli_argv, env, workdir, deadline))
        while len(setup) < SETUP_SPAWNS:
            probes.append(spawn(probe_argv, env, workdir, deadline))
            setup.append(spawn(import_argv, env, workdir, deadline))
        probes.append(spawn(probe_argv, env, workdir, deadline))
        scales = [2 * PROBE_REF_S / (a.cpu_s + b.cpu_s) for a, b in zip(probes, probes[1:])]
        walls = [c.wall_s for c in children]
        wall_median = statistics.median(walls)
        cpus = [c.cpu_s for c in children]

        traced_doc, traced = None, None
        if args.trace:
            spans_path = os.path.join(workdir, "spans.json")
            traced = spawn([sys.executable, os.path.join(HERE, "spans.py"), spans_path,
                            *inputs.argv], env, workdir, deadline)
            if os.path.isfile(spans_path):
                with open(spans_path, encoding="utf-8") as f:
                    traced_doc = json.load(f)

        t0 = time.perf_counter()
        oracle = check.load_oracle()
        attempted, failed, notes = judge(
            inputs, children + ([traced] if traced else []), oracle, args.seed
        )
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    q1, _, q3 = statistics.quantiles(cpus, n=4)
    probe_s = statistics.median(c.cpu_s for c in probes)
    cpu_raw = statistics.median(cpus)
    setup_raw = statistics.median(c.cpu_s for c in setup)
    e2e = {
        "cpu_ref_s": (statistics.median(c.cpu_s * k for c, k in zip(children, scales)), "s"),
        "setup_s": (statistics.median(c.cpu_s * k for c, k in zip(setup, scales)), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB"),
    }
    layers, missing = {}, {}
    if args.trace:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
        if traced_doc and traced_doc["spans"]:
            raw = spans.layer_metrics(traced_doc, wall_median, traced.wall_s, len(children[0].out))
            missing = spans.missing_layers(traced_doc)
        else:
            raw = {name: 0.0 for name in units}
            notes.append("traced run left no spans")
            failed = max(failed, 1)
        layers = {name: (raw[name], units[name]) for name in units}

    metrics = layers if args.trace else e2e
    correct = failed == 0
    lines = [
        f"workload {args.workload}  seed {args.seed}  inputs {json.dumps(inputs.props)}",
        f"  input generation {gen_s:.3f} s, output check {check_s:.3f} s (neither is measured)",
        f"  invocations {len(cpus)}: CPU s median {cpu_raw:.4f}  q1 {q1:.4f}  q3 {q3:.4f}; "
        f"wall s median {wall_median:.4f}; import CPU s median {setup_raw:.4f}",
        f"  probe CPU s median {probe_s:.4f} of {len(probes)}; scales to the reference "
        f"speed {PROBE_REF_S} s: median {statistics.median(scales):.4f}  "
        f"min {min(scales):.4f}  max {max(scales):.4f}",
    ]
    lines += [f"  {k:<28} {v:.6g} {u}" for k, (v, u) in e2e.items()]
    lines.append(f"  {'failed_frac':<28} {failed / attempted:.6g} ({failed}/{attempted} operations)")
    lines += [f"  {k:<28} {v:.6g} {u}" for k, (v, u) in layers.items()]
    lines += [f"  layer {k} missing: {', '.join(v)} not found in synsetgeom.cli"
              for k, v in missing.items()]
    lines += [f"  check: {n}" for n in notes[:20]]
    lines.append(f"  correct: {str(correct).lower()}")
    print("\n".join(lines))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(nproc, env),
        "inputs": inputs.props, "gen_s": gen_s, "check_s": check_s,
        "wall_samples": walls, "cpu_samples": cpus,
        "setup_samples": [c.cpu_s for c in setup],
        "probe_samples": [c.cpu_s for c in probes], "probe_ref_s": PROBE_REF_S,
        "scales": scales,
        "rss_samples": [c.rss_mb for c in children],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "failed_frac": failed / attempted,
        "per_layer": {k: v for k, (v, _) in layers.items()},
        "missing_layers": missing, "notes": notes,
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
