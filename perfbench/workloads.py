"""The four benchmark workloads: inputs, the timed solve, and the exactness gate.

Each workload is driven through the public ``obc`` API.  Names are looked up
on the ``obc`` package at call time, so a tracer installed after set-up sees
every call.  ``obc`` itself is passed in: importing it is part of set-up.

A workload provides

- ``setup(obc, seed, workdir)``: build the inputs (untimed by the solve);
- ``ops(inputs)``: how many operations one pass attempts;
- ``solve(obc, inputs)``: the time-to-solution region;
- ``check(obc, inputs, output)``: exactness gate, returns a list of
  ``(failed_ops, message)`` problems;
- ``digest(output)``: fingerprint of the exact output;
- ``entries(output)``: atlas entries produced (0 when no atlas is involved);
- ``coeff_bits(output)``: largest coefficient bit height in the output.
"""

from __future__ import annotations

import hashlib
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def _height(q):
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _point_bits(points):
    return max((_height(c) for z in points for c in z.coeffs), default=0)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tile_text(atlas):
    return "\n".join(
        f"{t.code.serialize()};{t.period};{t.polygon.serialize()};"
        f"{int(bool(t.symmetric))};{t.stability.verdict if t.stability else '-'}"
        for t in atlas.tiles()
    )


class PentagonCensus:
    """search_tiles + save_atlas on the n=5 window of acceptance criterion 06."""

    name = "pentagon_census"
    # sha256 of the saved atlas bytes for this window; the atlas format is a
    # persisted interface, so a change here is a behaviour change.
    ATLAS_SHA256 = "50a820762a0e2a00ee07390c17021419da8ff418cc2610a0b8c370d540e5eea3"

    def setup(self, obc, seed, workdir):
        window = obc.SearchWindow(
            n=5,
            bounds=(Fraction(3, 10), Fraction(33, 10), Fraction(3, 10), Fraction(33, 10)),
            grid_resolution=Fraction(1, 7),
            max_period=120,
            mode="exact",
        )
        xs, ts = window.grid()
        return {"window": window, "seeds": len(xs) * len(ts),
                "path": os.path.join(workdir, "pentagon.atlas")}

    def ops(self, inputs):
        return inputs["seeds"]

    def solve(self, obc, inputs):
        atlas = obc.search_tiles(inputs["window"])
        obc.save_atlas(atlas, inputs["path"])
        return atlas

    def check(self, obc, inputs, atlas):
        every = self.ops(inputs)
        with open(inputs["path"], "rb") as f:
            data = f.read()
        problems = []
        got = hashlib.sha256(data).hexdigest()
        if got != self.ATLAS_SHA256:
            problems.append((every, f"atlas sha256 {got} != recorded {self.ATLAS_SHA256}"))
        P5 = obc.regular_ngon(5)
        side = obc.geometry.norm_sq(P5.vertices[1] - P5.vertices[0])
        tiles = atlas.tiles()
        pent20 = [t for t in tiles if t.period == 20 and len(t.polygon) == 5
                  and t.polygon.is_regular() and t.polygon.side_lengths_sq()[0] == side]
        deca5 = [t for t in tiles if t.period == 5 and len(t.polygon) == 10
                 and t.polygon.is_regular()]
        if not pent20:
            problems.append((every, "no regular period-20 pentagon tile"))
        if not deca5:
            problems.append((every, "no regular period-5 decagon tile"))
        for t in tiles:
            if t.symmetric is not True or t.stability is None or t.stability.verdict != "stable":
                problems.append((every, f"tile {t.code.serialize()} not symmetric and stable"))
        return problems

    def digest(self, atlas):
        return _sha(_tile_text(atlas))

    def entries(self, atlas):
        return len(atlas.entries)

    def coeff_bits(self, atlas):
        return _point_bits(v for t in atlas.tiles() for v in t.polygon.vertices)


class SeptagonVerify:
    """load_atlas on a fixed subset of the certified septagon fixture."""

    name = "septagon_verify"
    PATH = os.path.join(HERE, "data", "septagon.atlas")

    def setup(self, obc, seed, workdir):
        with open(self.PATH, encoding="utf-8") as f:
            lines = f.read().splitlines()
        entries = [dict(p.split("=", 1) for p in line.split(";")) for line in lines[1:]]
        return {"path": self.PATH, "entries": entries}

    def ops(self, inputs):
        return len(inputs["entries"])

    def solve(self, obc, inputs):
        return obc.load_atlas(inputs["path"])

    def check(self, obc, inputs, atlas):
        problems = [(1, d) for d in atlas.provenance["diagnostics"]]
        missing = self.ops(inputs) - len(atlas.entries)
        if missing:
            problems.append((missing, f"{missing} entries not loaded"))
        exotic = [t for t in atlas.tiles() if t.period == 276]
        if len(exotic) != 1:
            problems.append((1, "period-276 tile missing"))
        elif exotic[0].symmetric or exotic[0].stability.verdict != "unstable":
            problems.append((1, "period-276 tile is not non-symmetric and unstable"))
        return problems

    def digest(self, atlas):
        return _sha(_tile_text(atlas) + "\n" + "\n".join(atlas.provenance["diagnostics"]))

    def entries(self, atlas):
        return len(atlas.entries)

    def coeff_bits(self, atlas):
        return _point_bits(v for t in atlas.tiles() for v in t.polygon.vertices)


class ContractedOrbits:
    """Seeded exact lambda=1/2 orbits outside the square regular_ngon(4)."""

    name = "contracted_orbits"
    ORBITS = 8
    STEPS = 1000
    LAM = Fraction(1, 2)
    SUP_BOUND = 3  # (1 + lam) / (1 - lam) * max sup-norm of the vertices

    def setup(self, obc, seed, workdir):
        # starts as in acceptance criterion 07: a 1/16 grid in [-3, 3]^2,
        # outside the polygon and off the singular set for the first step
        P = obc.regular_ngon(4)
        rng = random.Random(seed)
        starts = []
        while len(starts) < self.ORBITS:
            x = obc.from_scaled(4, Fraction(rng.randint(-48, 48), 16),
                                Fraction(rng.randint(-48, 48), 16))
            if obc.select_vertex(P, x).kind != "vertex":
                continue
            y, _ = obc.step(P, self.LAM, x)
            if obc.select_vertex(P, y).kind == "vertex":
                starts.append(x)
        return {"P": P, "starts": starts}

    def ops(self, inputs):
        return len(inputs["starts"])

    def solve(self, obc, inputs):
        P = inputs["P"]
        return [obc.iterate(P, self.LAM, x, self.STEPS) for x in inputs["starts"]]

    def check(self, obc, inputs, records):
        P = inputs["P"]
        problems = []
        for i, rec in enumerate(records):
            if rec.termination != "cap_reached" or len(rec.points) != self.STEPS + 1:
                problems.append((1, f"orbit {i}: {rec.termination} after {len(rec.points)} points"))
                continue
            # n = 4: a point is c0 + c1*i, so the sup-norm is exact
            worst = max(max(abs(c) for c in z.coeffs) for z in rec.points[500:])
            if worst > self.SUP_BOUND:
                problems.append((1, f"orbit {i}: sup-norm {float(worst)} > {self.SUP_BOUND}"))
                continue
            end = obc.periodic.compose_code_map(P, rec.code, self.LAM, rec.start)
            if end != rec.points[-1]:
                problems.append((1, f"orbit {i}: composed code map misses the last point"))
        return problems

    def digest(self, records):
        return _sha("\n".join(
            f"{r.termination};{','.join(map(str, r.code))};{r.points[-1].serialize()}"
            for r in records))

    def entries(self, records):
        return 0

    def coeff_bits(self, records):
        return _point_bits(z for r in records for z in r.points)


class SquareAttractors:
    """lambda_k brackets for k = 1..12 and certified attractor counts."""

    name = "square_attractors"
    KS = tuple(range(1, 13))
    TOL = Fraction(1, 10**12)
    COUNTS = ((Fraction(1, 2), 1), (Fraction(4, 5), 2), (Fraction(9, 10), 3))
    # count_attractors counts the attractors its float-screened samples reach.
    # At lambda = 9/10 the period-12 basin holds about 1.3 % of the sampled
    # disc, so 200 samples miss it for about 9 % of seeds (18 of seeds 0..199);
    # 1000 samples miss it with probability about 3e-6 per seed.
    SAMPLES = 1000
    STEPS = 10_000

    def setup(self, obc, seed, workdir):
        return {"seed": seed}

    def ops(self, inputs):
        return len(self.KS) + len(self.COUNTS)

    def solve(self, obc, inputs):
        brackets = [obc.lambda_k(k, self.TOL) for k in self.KS]
        counts = [obc.square.count_attractors_detail(lam, self.SAMPLES, self.STEPS,
                                                     seed=inputs["seed"])
                  for lam, _ in self.COUNTS]
        return brackets, counts

    def check(self, obc, inputs, output):
        brackets, counts = output
        problems = []
        for k, (lo, hi) in zip(self.KS, brackets):
            p = obc.square.p_eval
            if k == 1:
                ok = lo == hi == 0
            else:
                ok = lo <= hi and hi - lo <= self.TOL and p(k, lo) >= 0 >= p(k, hi)
            if not ok:
                problems.append((1, f"lambda_{k} bracket ({lo}, {hi}) is not certified"))
        for k in self.KS[:-1]:
            if not brackets[k - 1][1] < brackets[k][0]:
                problems.append((1, f"lambda_{k} and lambda_{k + 1} brackets not increasing"))
        for (lam, want), (got, _, _) in zip(self.COUNTS, counts):
            below = sum(1 for _, hi in brackets if hi < lam)
            if got != want or below != want:
                problems.append((1, f"lambda={lam}: {got} attractors, brackets give {below}, "
                                    f"expected {want}"))
        return problems

    def digest(self, output):
        brackets, counts = output
        return _sha(repr((brackets, counts)))

    def entries(self, output):
        return 0

    def coeff_bits(self, output):
        brackets, _ = output
        return max(_height(q) for b in brackets for q in b)


WORKLOADS = {w.name: w for w in (PentagonCensus(), SeptagonVerify(),
                                 ContractedOrbits(), SquareAttractors())}
