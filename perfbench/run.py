"""obc benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/obc`` next to ``perfbench``).
Each pass runs in a fresh interpreter (``worker.py``), one at a time: a
closed loop with one caller, single-threaded, with cold library caches as
every ``obc`` CLI call has them.  Passes repeat until ``--seconds`` have
elapsed.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported:
median pass time scaled to the reference host speed measured during the
pass (see ``worker.py``), median set-up time, median peak RSS, and the
share of operations that passed the exactness gate.  With ``--trace 1``
some passes run untraced and the rest with the layer tracer, and the
per-layer metrics are reported.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it, each
starting with ``#``, give the environment, sample counts and tail latency.
The exit code is 0 when every exactness check passed, 1 when one failed and
2 when the benchmark could not run at all (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

TRACE_UNTRACED_SHARE = 0.4  # share of --seconds spent on untraced passes in a traced run
DEADLINE_S = 170.0  # the whole run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot run (missing sources, crashed worker, timeout)."""


def environment(worker_env):
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        **worker_env,
    }


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.workdir = os.path.join(OUT, f"work-{os.getpid()}")

    def worker(self, mode):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--workdir", self.workdir]
        if mode == "traced":
            cmd += ["--trace-out", os.path.join(OUT, "trace", f"{self.workload}-seed{self.seed}.json")]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker exceeded the time budget") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def passes(self, mode, until):
        out = []
        while not out or time.monotonic() < until:
            out.append(self.worker(mode))
        return out


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, or None."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    idx = max(0, math.ceil(p / 100 * n) - 1)
    return p, xs[idx]


def declared_metrics(kind):
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def end_to_end(runner, seconds):
    start = time.monotonic()
    runs = runner.passes("pass", start + seconds)
    walls = [r["wall_ref_s"] for r in runs]
    setups = [r["setup_s"] for r in runs]
    probes = [r["probe_s"] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    values = {
        "wall_ref_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["rss_kib"] for r in runs) / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    tail = tail_percentile(walls)
    notes = [
        f"passes={len(walls)} wall_ref_s median={values['wall_ref_s']:.4f} "
        f"min={min(walls):.4f} max={max(walls):.4f} "
        + (f"p{tail[0]}={tail[1]:.4f}" if tail else "tail: n/a (a percentile needs >= 11 passes)"),
        f"wall_s (host seconds) median={statistics.median(r['wall_s'] for r in runs):.4f}; "
        f"probe median={statistics.median(probes) * 1e3:.4f} ms min={min(probes) * 1e3:.4f} "
        f"max={max(probes) * 1e3:.4f}, {sum(r['probes'] for r in runs)} probes",
        f"setup_s samples={len(setups)} median={values['setup_s']:.4f}",
        f"error_rate={failed}/{attempted}={failed / attempted:.6g}",
    ]
    return runs, values, notes


def per_layer(runner, seconds):
    start = time.monotonic()
    plain = runner.passes("pass", start + TRACE_UNTRACED_SHARE * seconds)
    traced = runner.passes("traced", start + seconds)
    runs = plain + traced
    layers = [r["layers"] for r in traced if "layers" in r]
    values = {}
    if layers:
        for key in layers[0]:
            vals = [lay[key] for lay in layers]
            values[key] = statistics.median(vals) if isinstance(vals[0], float) else vals[0]
    untraced = statistics.median(r["wall_s"] for r in plain)
    values["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    values["proc.wall_s"] = untraced
    values["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / untraced - 1
    digests = {r["digest"] for r in runs}
    notes = [
        f"untraced passes={len(plain)} traced passes={len(traced)} "
        f"spans dropped past the log cap={traced[-1].get('spans_dropped', 0)}",
        f"output digests identical traced/untraced: {len(digests) == 1}",
    ]
    if len(digests) != 1:
        runs[-1]["failed"] = runs[-1]["attempted"]
        runs[-1]["problems"].append("traced and untraced outputs differ")
    return runs, values, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    runner = Runner(args.workload, args.seed, deadline)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "obc", "__init__.py")):
            raise BenchError(f"no obc sources under {os.path.join(ROOT, 'src')}")
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
        os.makedirs(runner.workdir, exist_ok=True)
        # first import in a checkout compiles bytecode; keep it out of the samples
        env = environment(runner.worker("setup")["env"])
        measure = per_layer if args.trace else end_to_end
        runs, values, notes = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if set(values) != set(declared) and not failed:
        print(f"perfbench: metrics {sorted(set(values) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    problems = sorted({p for r in runs for p in r["problems"]})
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("# " + note)
    for p in problems:
        print("# EXACTNESS FAILURE: " + p)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a traced pass that raised has no layer metrics; it is counted as failed
        "metrics": {k: {"value": values.get(k, 0), "unit": declared[k]} for k in declared},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
