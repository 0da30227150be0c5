"""Steadiness check: repeat the benchmark over seeds and compare spreads with bounds.

    python3 perfbench/steady.py [--out FILE] [--traced-run]

Runs ``run.py`` once for each of the seeds 1..10 on every workload, each run
with ``run_seconds`` from BENCHMARK.json, then prints for every end-to-end
metric its median, quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median next to the metric's bound.  A spread above a third of
the bound is flagged ``wide``; above the bound, ``FAIL``.  ``--out`` writes
the summary, with the environment of the runs, as JSON; ``--traced-run``
adds the per-layer metrics of one traced run per workload (seed 1).  The
exit code is 1 when a run failed or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def one_run(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")),
               None)
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    return proc.returncode, result, env, proc.stderr


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    ap.add_argument("--traced-run", action="store_true",
                    help="also record the per-layer metrics of one traced run per workload")
    args = ap.parse_args(argv)

    ok = True
    summary = {"runs": len(SEEDS), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        per_metric = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in SEEDS:
            code, result, env, err = one_run(workload, seed, seconds)
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed={seed}: exit {code}\n{err[-2000:]}", file=sys.stderr)
                if result is None:
                    continue
            summary["env"] = env
            for name in per_metric:
                per_metric[name].append(result["metrics"][name]["value"])
        rows = {}
        for m in bench["end_to_end"]:
            vals = per_metric[m["name"]]
            if len(vals) < 2:
                ok = False
                continue
            row = rows[m["name"]] = summarize(vals, m["bound"])
            flag = "ok"
            if row["spread"] > m["bound"]:
                flag = "FAIL"
                ok = False
            elif row["spread"] > m["bound"] / 3:
                flag = "wide"
            print(f"{workload:18s} {m['name']:13s} median={row['median']:.6g} "
                  f"q1={row['q1']:.6g} q3={row['q3']:.6g} spread={row['spread']:.4f} "
                  f"bound={m['bound']} {flag} values={[float(f'{v:.6g}') for v in vals]}",
                  flush=True)
        if args.traced_run:
            code, result, _, err = one_run(workload, SEEDS[0], seconds, trace=1)
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} traced: exit {code}\n{err[-2000:]}", file=sys.stderr)
            else:
                rows["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][workload] = rows
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
