"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --workdir DIR

MODE is ``setup`` (import ``obc`` and build the inputs only), ``pass``
(set-up, then the timed solve and the exactness gate) or ``traced`` (the
same with the layer tracer installed around the solve).  The last line of
standard output is one JSON object; ``run.py`` starts this script once per
pass, so every pass starts with cold library caches, as a CLI call does.

While an untraced solve runs, an interval timer interrupts it every
``PROBE_PERIOD_S`` to time a short probe of interpreter work that does not
use ``obc``.  The speed of a shared host swings by tens of percent within
seconds, and the probes see the same swings at the same moments as the
solve.  ``wall_s`` is the solve time without the probes; ``wall_ref_s``
divides the host's speed out of it: it is the time the solve would have
taken on a host where one probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBE_PERIOD_S = 0.05  # wall time between two probes during an untraced solve
PROBE_REF_S = 0.00045  # median probe time on the reference host (README.md)
_PROBE_MODULUS = (1 << 1024) - 105


def probe():
    """About half a millisecond of big-integer and float work, no GC-tracked objects."""
    z = 3**600
    for _ in range(60):
        z = z * z % _PROBE_MODULUS
    x, y = 0.5, 0.25
    for _ in range(1500):
        x, y = y, (x * 0.75 + y * 0.5) % 1.0
    return z, x


class SpeedProbe:
    """Times ``probe()`` every PROBE_PERIOD_S of wall time while active."""

    def __init__(self):
        self.times = []

    def tick(self, signum=None, frame=None):
        t = time.perf_counter()
        probe()
        self.times.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    src = os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import obc

    inputs = wl.setup(obc, args.seed, args.workdir)
    setup_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(obc.__file__)) != os.path.join(src, "obc"):
        raise SystemExit(f"imported obc from {obc.__file__}, not from {src}")
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        import mpmath

        result["env"] = {"mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}
        print(json.dumps(result))
        return 0

    tracer = layertrace.Tracer() if args.mode == "traced" else None
    probes = SpeedProbe() if tracer is None else None
    output = None
    if tracer is not None:
        tracer.install()
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        with probes or contextlib.nullcontext():
            if tracer is not None:
                output = tracer.span(layertrace.ROOT_SPAN, wl.solve, obc, inputs)
            else:
                output = wl.solve(obc, inputs)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
    probe_total = sum(probes.times) if probes is not None else 0.0
    wall_s = time.perf_counter() - w0 - probe_total
    cpu_s = time.process_time() - c0 - probe_total
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.restore()
    if probes is not None:
        if not probes.times:  # the solve never returned to the interpreter loop
            probes.tick()
        result.update(probes=len(probes.times), probe_s=statistics.median(probes.times))
        result["wall_ref_s"] = wall_s * PROBE_REF_S / result["probe_s"]

    attempted = wl.ops(inputs)
    if output is None:
        problems = [(attempted, "solve raised")]
    else:
        try:
            problems = wl.check(obc, inputs, output)
        except Exception as exc:  # a gate that cannot read the output fails it
            traceback.print_exc()
            problems = [(attempted, f"gate raised: {exc!r}")]
    failed = min(attempted, sum(n for n, _ in problems))
    result.update(
        wall_s=wall_s, cpu_s=cpu_s, rss_kib=rss_kib, attempted=attempted, failed=failed,
        problems=[msg for _, msg in problems],
        digest=wl.digest(output) if output is not None else None,
    )
    if tracer is not None and output is not None:
        result["layers"] = layertrace.layer_metrics(
            tracer, wl.entries(output), wl.coeff_bits(output))
        result["spans_dropped"] = tracer.dropped
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
