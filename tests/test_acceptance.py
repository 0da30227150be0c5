"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report.
"""

import random
import time
from fractions import Fraction

from exact_closed_forms import qk_closed_form, unfold
from mpmath import mp

from obc.atlas import SearchWindow, picture_convergence, scr_region, search_tiles
from obc.dynamics import Code, iterate, select_vertex, step
from obc.field import CycloNum, cyclotomic_polynomial, euler_phi, sign_of_real
from obc.geometry import from_scaled, norm_sq, point_xy, regular_ngon
from obc.periodic import (
    code_fixed_point,
    compose_code_map,
    is_lambda_stable,
    stability_limit,
)
from obc.square import (
    count_attractors,
    existence_identity_holds,
    lambda_k,
    sk_code,
    square_polygon,
)

SQ = square_polygon()


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_square_attractor_counts():
    t0 = time.monotonic()
    results = {}
    for lam, expected in ((Fraction(1, 2), 1), (Fraction(4, 5), 2), (Fraction(9, 10), 3)):
        got = count_attractors(lam, samples=200, max_steps=10_000)
        results[str(lam)] = got
        assert got == expected, (lam, got)
    dt = time.monotonic() - t0
    assert dt < 60.0, dt
    _report(1, f"attractor counts {results} in {dt:.1f}s (< 60s)")


def test_criterion_02_lambda_k_sequence():
    t0 = time.monotonic()
    tol = Fraction(1, 10**12)
    assert lambda_k(1, tol) == (Fraction(0), Fraction(0))
    prev_hi = None
    enclosures = []
    for k in range(1, 13):
        lo, hi = lambda_k(k, tol)
        assert hi - lo <= tol
        if prev_hi is not None:
            assert lo > prev_hi, k
        prev_hi = hi
        enclosures.append(float(lo))
    assert prev_hi > Fraction(99, 100)
    dt = time.monotonic() - t0
    assert dt < 10.0, dt
    _report(2, f"lambda_1=0 exactly, strictly increasing to lambda_12={enclosures[-1]:.6f} "
               f"> 0.99, tol 1e-12, in {dt:.1f}s (< 10s)")


def test_criterion_03_closed_form_equals_fixed_point():
    rng = random.Random(3)
    checked = 0
    for k in range(1, 9):
        code = sk_code(k)
        for _ in range(20):
            lam = Fraction(rng.randint(1, 9999), 10000)
            assert qk_closed_form(k, lam) == code_fixed_point(SQ, code, lam)
            checked += 1
    _report(3, f"closed-form coordinates equal the fixed-point formula exactly "
               f"({checked} (k, lambda) pairs, k <= 8)")


def test_criterion_04_existence_identity():
    for k in range(1, 11):
        assert existence_identity_holds(k)
    _report(4, "(1+t)(1-t^k)^2 - (1-t)(1+t^2k) == 2t p_k(t) as exact polynomials, k <= 10")


def _pentagon_layer_tiles(pentagon_atlas):
    P5 = regular_ngon(5)
    side = norm_sq(P5.vertices[1] - P5.vertices[0])
    pent = [t for t in pentagon_atlas.tiles()
            if t.period == 20 and len(t.polygon.vertices) == 5
            and t.polygon.side_lengths_sq()[0] == side]
    deca = [t for t in pentagon_atlas.tiles()
            if t.period == 5 and len(t.polygon.vertices) == 10]
    assert pent and deca
    return pent + deca


def test_criterion_05_barycenter_criterion_consistency(n4_square_frame_atlas, pentagon_atlas):
    near_one = 1 - Fraction(1, 10**8)
    periods = sorted(t.period for t in n4_square_frame_atlas.tiles())
    assert periods == [4 * k for k in range(1, 7)], periods
    checked = 0
    for P, tiles in ((SQ, n4_square_frame_atlas.tiles()),
                     (regular_ngon(5), _pentagon_layer_tiles(pentagon_atlas))):
        for t in tiles:
            rep = t.stability or is_lambda_stable(P, t.code)
            assert rep.verdict == "stable"
            assert rep.limit_point == t.polygon.centroid()
            q = code_fixed_point(P, Code(t.code.doubled_even()), near_one)
            qx, qy = point_xy(q)
            lx, ly = point_xy(rep.limit_point)
            assert max(abs(qx - lx), abs(qy - ly)) < 1e-5
            checked += 1
    _report(5, f"{checked} tiles (square rings 1..6 + pentagon necklace layers): stable, "
               "limit == exact center, |q(1-1e-8) - limit| < 1e-5")


def test_criterion_06_pentagon_census(pentagon_atlas):
    t0 = time.monotonic()
    P5 = regular_ngon(5)
    side = norm_sq(P5.vertices[1] - P5.vertices[0])
    tiles = pentagon_atlas.tiles()
    pent20 = [t for t in tiles if t.period == 20 and len(t.polygon.vertices) == 5
              and t.polygon.is_regular() and t.polygon.side_lengths_sq()[0] == side]
    deca5 = [t for t in tiles if t.period == 5 and len(t.polygon.vertices) == 10
             and t.polygon.is_regular()]
    assert pent20, "no regular period-20 pentagonal tile found"
    assert deca5, "no regular period-5 decagonal tile found"
    for t in tiles:
        assert t.symmetric is True
        assert t.stability.verdict == "stable"
        assert len(t.polygon.vertices) <= 10
    dt = time.monotonic() - t0
    assert dt < 300.0
    _report(6, f"census: {len(tiles)} orbits incl. period-20 regular pentagons and "
               f"period-5 regular decagons; all symmetric and stable; sides <= 10")


def test_criterion_07_boundedness():
    rng = random.Random(7)
    lam = Fraction(1, 2)
    P = regular_ngon(4)
    bound = 3.0  # (1+lam)/(1-lam) * max sup-norm of the vertices
    done = 0
    worst = 0.0
    while done < 100:
        x = from_scaled(4, Fraction(rng.randint(-48, 48), 16),
                        Fraction(rng.randint(-48, 48), 16))
        if select_vertex(P, x).kind != "vertex":
            continue
        rec = iterate(P, lam, x, 1000)
        if rec.termination == "hit_singular":
            continue
        for p in rec.points[500:1001]:
            px, py = point_xy(p)
            m = max(abs(px), abs(py))
            worst = max(worst, m)
            assert m <= bound + 1e-9
        done += 1
    _report(7, f"100 orbits, n=4, lambda=1/2: sup-norm over iterations 500..1000 "
               f"<= 3 + 1e-9 (worst {worst:.6f})")


def test_criterion_08_convergence_of_picture():
    lams = [Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000)]
    summary = {}
    for n in (3, 4, 6):
        atlas = search_tiles(SearchWindow(
            n, (Fraction(3, 10), Fraction(3), Fraction(3, 10), Fraction(3)),
            Fraction(1, 6), 50))
        tile = min(atlas.tiles(), key=lambda t: t.period)
        center = tile.stability.limit_point
        rows = picture_convergence(regular_ngon(n), center, lams, 200)
        ds = [d for _, d in rows]
        assert ds[0] > ds[1] > ds[2], (n, ds)
        assert ds[2] < 0.05, (n, ds)
        summary[n] = [round(d, 5) for d in ds]
    _report(8, f"strictly decreasing Hausdorff distances at lambda 0.9/0.99/0.999, "
               f"depth 200, last < 0.05: {summary}")


def test_criterion_09_sign_oracle():
    rng = random.Random(9)
    mp.dps = 100
    cos_cache = {}
    checked = zeros = 0
    for n in range(3, 13):
        phi = euler_phi(n)
        cos_cache[n] = [mp.cos(2 * mp.pi * k / n) for k in range(phi)]
        for _ in range(10_000):
            w = CycloNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                             for _ in range(phi)])
            z = w + w.conj()
            got = sign_of_real(z)
            if z.is_zero():
                assert got == 0
                zeros += 1
                continue
            ref = mp.fsum(
                mp.mpf(c.numerator) / c.denominator * cos_cache[n][k]
                for k, c in enumerate(z.coeffs) if c
            )
            if abs(ref) > mp.mpf(10) ** -30:
                assert got == (1 if ref > 0 else -1)
            checked += 1
        # constructed zeros: the minimal polynomial evaluated at zeta, times w
        acc = CycloNum.zero(n)
        for k, c in enumerate(cyclotomic_polynomial(n)):
            acc = acc + CycloNum.zeta(n, k) * c
        prod = acc * w
        assert prod.is_zero() and sign_of_real(prod + prod.conj()) == 0
        zeros += 1
    _report(9, f"{checked} random reals (10^4 per n in 3..12) match 100-digit floats; "
               f"{zeros} constructed zeros detected exactly by the normal form")


def test_criterion_10_property_suite(pentagon_atlas):
    rng = random.Random(10)
    # fixed-point identity
    for n in (4, 5, 7):
        P = regular_ngon(n)
        for _ in range(10):
            word = [rng.randint(1, n) for _ in range(rng.randint(2, 8))]
            lam = Fraction(rng.randint(1, 19), 20)
            q = code_fixed_point(P, Code(word), lam)
            assert compose_code_map(P, Code(word), lam, q) == q
    # shift invariance: anchored averages within one chain all agree, and
    # the verdict is invariant under cyclic shifts
    code = sk_code(2)
    ch = unfold(SQ, code)
    k = len(code.word)
    anchored = []
    for j in range(k):
        acc = ch.points[j]
        for i in range(k):
            acc = acc + ch.step_vectors[(i + j) % k] * Fraction(2 * (k - 1 - i), k)
        anchored.append(acc)
    assert all(v == anchored[0] for v in anchored)
    assert anchored[0] == stability_limit(SQ, code)
    verdicts = {is_lambda_stable(SQ, code.shifted(j)).verdict for j in range(k)}
    assert verdicts == {"stable"}
    # base independence: the chain barycenter from every base is the limit
    # point that the verdict locates
    lim = is_lambda_stable(SQ, code).limit_point
    for _ in range(5):
        base = from_scaled(4, Fraction(rng.randint(-9, 9), 10), Fraction(rng.randint(-9, 9), 10))
        assert unfold(SQ, Code(code.doubled_even()), base).barycenter() == lim
    # side-count bound over the census
    for t in pentagon_atlas.tiles():
        assert len(t.polygon.vertices) <= 10
    # rotation equivariance
    P5 = regular_ngon(5)
    z5 = CycloNum.zeta(5)
    done = 0
    while done < 10:
        x = from_scaled(5, Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-40, 40), 8))
        if select_vertex(P5, x).kind != "vertex":
            continue
        lam = Fraction(rng.randint(1, 10), 10)
        y, lbl = step(P5, lam, x)
        y2, lbl2 = step(P5, lam, x * z5)
        assert y2 == y * z5 and lbl2 == lbl % 5 + 1
        done += 1
    # SCR nestedness
    x = from_scaled(4, -2, 0)
    shallow = scr_region(regular_ngon(4), Fraction(9, 10), x, 24)
    deep = scr_region(regular_ngon(4), Fraction(9, 10), x, 48)
    assert all(shallow.polygon.contains(v) for v in deep.polygon.vertices)
    _report(10, "fixed-point identity, shift/base invariance, side bound, "
                "rotation equivariance, SCR nestedness")


def test_criterion_11_septagon_exploration(septagon_atlas):
    # non-gating in spirit: the deep searches are far beyond desk scale, but
    # this window does contain a certified non-symmetric pentagonal tile
    P7 = regular_ngon(7)
    exotic = [t for t in septagon_atlas.tiles() if not t.symmetric]
    assert exotic, "fixture should contain a non-symmetric tile"
    for t in exotic:
        rep = is_lambda_stable(P7, t.code)
        assert rep.verdict == "unstable"
    # a fresh small float_then_certify sweep across a 0.01-diameter window
    # around a known orbit point re-finds a non-symmetric tile
    seed_tile = exotic[0]
    cx, cy = point_xy(seed_tile.polygon.centroid())
    x0 = Fraction(round((cx - 0.005) * 1000), 1000)
    t0 = Fraction(round((cy / 0.7818314824680298 - 0.005) * 1000), 1000)
    window = SearchWindow(7, (x0, x0 + Fraction(1, 100), t0, t0 + Fraction(1, 100)),
                          Fraction(1, 400), 600, mode="float_then_certify")
    found = search_tiles(window)
    nonsym = [t for t in found.tiles() if not t.symmetric]
    for t in nonsym:
        assert is_lambda_stable(P7, t.code).verdict == "unstable"
    _report(11, f"fixture exotic tile: period {exotic[0].period}, non-symmetric, unstable; "
                f"fresh 0.01-window sweep re-found {len(nonsym)} non-symmetric tile(s) "
                "(deep searches beyond period 600 not attempted)")
