"""Self-test of the benchmark itself (not of obc).

    python3 perfbench/selftest.py

Checks that

1. the tracer wraps every traced name wherever an ``obc`` module bound it,
   and ``restore()`` puts back every original object;
2. the exactness gate rejects a tampered output;
3. a traced pass and an untraced pass give identical output digests;
4. two traced passes with the same seed give identical per-layer counts.

Checks 3 and 4 start fresh interpreters through ``worker.py`` (three passes
per workload; about a minute for all four).  Exit code 0 when all pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def _snapshot(obc_modules, classes):
    snap = {}
    for mod in obc_modules:
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
    for cls in classes:
        for attr, value in vars(cls).items():
            snap[(cls.__qualname__, attr)] = value
    return snap


def check_patch_and_restore():
    import obc

    modules = layertrace._obc_modules()
    classes = (obc.field.CycloNum, obc.geometry.ConvexPolygon)
    before = _snapshot(modules, classes)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        patched = {(getattr(o, "__name__", None), a) for o, a, _ in tracer.patched()}
        expect(("obc.atlas", "tile_from_code") in patched
               and ("obc.periodic", "tile_from_code") in patched,
               "tile_from_code wrapped in obc.periodic and in obc.atlas, which imported it")
        expect(("obc.geometry", "sign_of_real") in patched
               and ("obc.dynamics", "sign_of_real") in patched
               and ("obc.field", "sign_of_real") in patched,
               "sign_of_real wrapped in every module that bound it")
        expect(obc.field.CycloNum.__mul__ is not before[("CycloNum", "__mul__")]
               and obc.field.CycloNum.__rmul__ is not before[("CycloNum", "__rmul__")],
               "CycloNum.__mul__ and __rmul__ wrapped on the class")
        P = obc.regular_ngon(5)
        tracer.span(layertrace.ROOT_SPAN, obc.select_vertex, P, obc.from_scaled(5, 3, 1))
        expect(tracer.stats["dynamics.select_vertex"][0] == 1
               and tracer.stats["field.sign"][0] > 0, "spans recorded through the wrappers")
    finally:
        tracer.restore()
    after = _snapshot(modules, classes)
    changed = [k for k in before if after.get(k) is not before[k]]
    expect(not changed and set(after) == set(before),
           f"restore() put back every patched name ({len(before)} checked, changed: {changed})")


def check_gate_rejects_tampering(seed):
    import obc

    wl = WORKLOADS["square_attractors"]
    inputs = wl.setup(obc, seed, None)
    brackets, counts = wl.solve(obc, inputs)
    expect(wl.check(obc, inputs, (brackets, counts)) == [], "square gate passes the real output")
    bad = [(c + 1, v, u) for c, v, u in counts]
    expect(len(wl.check(obc, inputs, (brackets, bad))) == 3, "square gate rejects wrong counts")
    swapped = [brackets[1], brackets[0]] + brackets[2:]
    expect(wl.check(obc, inputs, (swapped, counts)) != [], "square gate rejects unordered brackets")

    wl = WORKLOADS["contracted_orbits"]
    inputs = wl.setup(obc, seed, None)
    inputs["starts"] = inputs["starts"][:1]
    records = wl.solve(obc, inputs)
    expect(wl.check(obc, inputs, records) == [], "orbit gate passes the real output")
    records[0].points[-1] = records[0].points[-2]
    expect(len(wl.check(obc, inputs, records)) == 1, "orbit gate rejects a wrong last point")


def worker(workload, seed, mode, workdir):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", workdir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload, seed):
    units = {}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        for m in json.load(f)["per_layer"]:
            units[m["name"]] = m["unit"]
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="selftest-") as workdir:
        plain = worker(workload, seed, "pass", workdir)
        t1 = worker(workload, seed, "traced", workdir)
        t2 = worker(workload, seed, "traced", workdir)
    expect(plain["failed"] == 0 and t1["failed"] == 0 and t2["failed"] == 0,
           f"{workload}: exactness gate passes, traced and untraced")
    expect(plain["digest"] == t1["digest"] == t2["digest"],
           f"{workload}: traced and untraced output digests identical")
    counts = [k for k in t1["layers"] if units.get(k) != "s"]
    differ = [k for k in counts if t1["layers"][k] != t2["layers"][k]]
    expect(not differ, f"{workload}: {len(counts)} per-layer counts repeat exactly "
                       f"(differing: {differ})")


def main():
    check_patch_and_restore()
    check_gate_rejects_tampering(SEED)
    for workload in WORKLOADS:
        check_workload(workload, SEED)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
