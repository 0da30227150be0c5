"""Square family: threshold polynomials, closed forms, the index-k cycles,
attractor counting."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from exact_closed_forms import qk_closed_form
from hypothesis import given, settings
from hypothesis import strategies as st

import obc.periodic
from obc.dynamics import iterate
from obc.field import CycloNum
from obc.geometry import (
    from_scaled,
    imag_scaled,
    intersect_halfplanes,
    point_xy,
    real_part,
    regular_ngon,
)
from obc.periodic import (
    capture_region,
    captured_word,
    code_constraints,
    code_endpoint,
    code_fixed_point,
    compose_code_map,
    follows_code,
    validate_periodic,
)
from obc.square import (
    count_attractors_detail,
    existence_condition,
    existence_identity_holds,
    lambda_k,
    p_eval,
    sk_code,
    square_polygon,
)

rng = random.Random(31415)

SQ = square_polygon()


def float_root(f, lo, hi, iters=80):
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo


def test_p1_and_lambda1():
    lam = Fraction(2, 7)
    assert p_eval(1, lam) == -lam + lam * lam
    assert lambda_k(1) == (0, 0)


def test_lambda2_and_lambda3_against_independent_bisection():
    lo, hi = lambda_k(2, Fraction(1, 10**10))
    # p_2 factors as (t - 1)(t^3 + t^2 - 1); bisect the cubic in floats
    root = float_root(lambda t: -(t**3 + t**2 - 1), 0.0, 1.0)
    assert abs(float(lo) - root) < 1e-9
    assert abs(float(lo) - 0.7548776662) < 1e-9
    lo3, hi3 = lambda_k(3, Fraction(1, 10**10))
    root3 = float_root(lambda t: p_eval(3, Fraction(t).limit_denominator(10**12)), 0.0, 1.0)
    assert abs(float(lo3) - root3) < 1e-8
    assert abs(float(lo3) - 0.8898912458) < 1e-9
    assert hi - lo <= Fraction(1, 10**10)


def test_lambda_k_monotone_to_one():
    prev_hi = None
    for k in range(1, 13):
        lo, hi = lambda_k(k, Fraction(1, 10**12))
        assert hi - lo <= Fraction(1, 10**12)
        if prev_hi is not None:
            assert lo > prev_hi
        prev_hi = hi
    assert prev_hi > Fraction(99, 100)


def test_pk_sign_shape():
    for k in (2, 3, 5, 8, 10):
        lo, hi = lambda_k(k, Fraction(1, 10**9))
        for j in range(1, 100):
            probe = lo * Fraction(j, 100)
            if probe > 0:
                assert p_eval(k, probe) > 0
            probe2 = hi + (1 - hi) * Fraction(j, 100)
            if probe2 < 1:
                assert p_eval(k, probe2) < 0


def test_sk_code_examples():
    c1 = sk_code(1)
    verts = [point_xy(SQ.vertices[a - 1]) for a in c1.word]
    assert verts == [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    c3 = sk_code(3)
    assert len(c3.word) == 12
    xs = [int(point_xy(SQ.vertices[a - 1])[0]) for a in c3.word]
    assert xs == [-1, 1, -1, 1, -1, 1, 1, -1, 1, -1, 1, -1]
    # x-coordinates alternate in two runs for every k
    for k in (2, 4, 5):
        xs = [int(point_xy(SQ.vertices[a - 1])[0]) for a in sk_code(k).word]
        assert xs[0] == -1
        for i in range(1, 2 * k):
            assert xs[i] == -xs[i - 1]
        assert xs[2 * k] == xs[2 * k - 1]
        for i in range(2 * k + 1, 4 * k):
            assert xs[i] == -xs[i - 1]


def test_qk_closed_form_values():
    assert qk_closed_form(1, Fraction(1, 2)) == code_fixed_point(SQ, sk_code(1), Fraction(1, 2))
    q = qk_closed_form(1, Fraction(1, 2))
    assert point_xy(q) == (-1.8, 0.6)
    for k in (1, 2, 5):
        assert point_xy(qk_closed_form(k, 1)) == (-2.0 * k, 0.0)


def test_qk_matches_fixed_point_formula():
    for k in range(1, 9):
        code = sk_code(k)
        for _ in range(6):
            lam = Fraction(rng.randint(1, 99), 100)
            assert qk_closed_form(k, lam) == code_fixed_point(SQ, code, lam)


def test_existence_condition():
    assert p_eval(2, Fraction(1, 2)) == Fraction(5, 16)
    assert existence_condition(2, Fraction(1, 2)) is False
    assert existence_condition(2, Fraction(4, 5)) is True
    for k in (2, 3, 4):
        assert existence_condition(k, 1 - Fraction(1, 10**6)) is True


def test_existence_identity():
    for k in range(1, 11):
        assert existence_identity_holds(k)


def test_validate_periodic_straddles_threshold():
    for k in (2, 3):
        lo, hi = lambda_k(k, Fraction(1, 10**9))
        code = sk_code(k)
        assert validate_periodic(SQ, code, hi + Fraction(1, 100)) is True
        assert validate_periodic(SQ, code, lo - Fraction(1, 100)) is False


def test_index_k_cycle_exists_above_lambda_k():
    # the exact certificate for any polygon: q_k's orbit follows sk_code(k)
    # and closes just above the root of p_k and at (1 + hi)/2, but not just
    # below it (k = 1 exists at every rate, lambda_1 = 0); its 4k points are
    # the quarter turns z -> i z of one another
    for k in range(1, 13):
        lo, hi = lambda_k(k, Fraction(1, 10**9))
        code = sk_code(k)
        for lam in (hi, (1 + hi) / 2):
            if lam == 0:
                continue
            q = code_fixed_point(SQ, code, lam)
            assert follows_code(SQ, lam, q, code), (k, lam)
            points = iterate(SQ, lam, q, 4 * k).points[:-1]
            assert len(set(points)) == 4 * k
            assert {z * CycloNum.zeta(4) for z in points} == set(points), (k, lam)
        if k >= 2:
            assert not follows_code(SQ, lo, code_fixed_point(SQ, code, lo), code), k
        # elsewhere the cycle exists exactly where p_k(lam) <= 0
        for lam in (Fraction(1, 10), Fraction(1, 2), Fraction(4, 5), Fraction(9, 10),
                    Fraction(99, 100)):
            q = code_fixed_point(SQ, code, lam)
            assert follows_code(SQ, lam, q, code) is existence_condition(k, lam), (k, lam)


def test_count_attractors_small_sample():
    cnt, codes, undecided = count_attractors_detail(Fraction(1, 2), samples=60, max_steps=4000)
    assert cnt == 1
    assert undecided == 0
    assert [len(w) for w in codes] == [4]


P4 = (1, 2, 3, 4)
P8 = (1, 2, 4, 1, 3, 4, 2, 3)
P12 = (1, 2, 4, 2, 3, 1, 3, 4, 2, 4, 1, 3)
# count_attractors_detail(lam, 1000, 10_000, seed=s) for s = 1, 2, 3,
# recorded when each count still ran a fixed 512-step float tail
PINNED_COUNTS = {
    Fraction(1, 2): (1, [P4], 0),
    Fraction(4, 5): (2, [P4, P8], 0),
    Fraction(9, 10): (3, [P4, P8, P12], 0),
}


def test_attractor_counts_pinned():
    for seed in (1, 2, 3):
        for lam, want in PINNED_COUNTS.items():
            assert count_attractors_detail(lam, 1000, 10_000, seed=seed) == want, (seed, lam)


def test_counted_words_carry_a_capture_certificate():
    # the capture certificate needs q_W real and inside the convex region
    # R_W of points whose first |W| labels are W
    for lam, (_, words, _) in PINNED_COUNTS.items():
        for w in words:
            assert validate_periodic(SQ, w, lam)
            region = intersect_halfplanes(code_constraints(SQ, lam, w))
            assert region.polygon.locate(code_fixed_point(SQ, w, lam)) == "interior"


def test_orbits_stopped_before_first_capture_attempt_are_undecided():
    assert count_attractors_detail(Fraction(1, 2), 5, 8) == (0, [], 5)


# (P, lam, W): the square's counted cycles, and the n=12 cycle of the
# stable period-4 tile (1, 4, 7, 10) near lam = 1, whose region lives in
# (x, ytilde) with ytilde = y / sin(pi/6)
BOXED = [(SQ, lam, w) for lam, (_, words, _) in PINNED_COUNTS.items() for w in words]
BOXED.append((regular_ngon(12), Fraction(999, 1000), (1, 4, 7, 10)))


def test_capture_region_holds_q_and_maps_into_itself():
    # K is the same-code region of W in the shared box, q_W lies inside it,
    # and the composed map of W sends each vertex of K into K: F_W(K) in K
    for P, lam, w in BOXED:
        reg = capture_region(P, w, lam)
        assert reg is not None, (P, lam, w)
        assert reg.word == w
        K = reg.polygon
        box = Fraction(2 * P.vertices[0].n) * (1 + lam) / (1 - lam) + 4
        assert K == intersect_halfplanes(code_constraints(P, lam, w), half_width=box).polygon
        assert K.locate(code_fixed_point(P, w, lam)) == "interior"
        assert len(reg.edges) == len(K.vertices)
        for v in K.vertices:
            assert K.contains(compose_code_map(P, w, lam, v)), (w, lam)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BOXED), st.integers(0, 63), st.integers(0, 2**20 - 1),
       st.integers(0, 2**20 - 1))
def test_points_of_the_capture_region_stay_in_it(case, i, s, t):
    # z = c + s (v_i - c) + t (v_(i+1) - c), c the centroid, s + t < 1:
    # a point of K's interior follows W for |W| steps and lands inside K
    P, lam, w = case
    K = capture_region(P, w, lam).polygon
    vs = K.vertices
    i %= len(vs)
    s, t = Fraction(s, 2**21), Fraction(t, 2**21)
    c = K.centroid()
    z = c + (vs[i] - c) * s + (vs[(i + 1) % len(vs)] - c) * t
    assert K.locate(z) == "interior"
    end = code_endpoint(P, lam, z, w)
    assert end is not None
    assert end == compose_code_map(P, w, lam, z)
    assert K.locate(end) == "interior"


def test_capture_region_needs_q_inside_its_box(monkeypatch):
    # shrink the box until q_W is on or just outside its edge: the region
    # still has interior near q_W, and only the exact check rejects it
    for P, lam, w in BOXED:
        q = code_fixed_point(P, w, lam)
        if P.vertices[0].n == 4:
            h = max(abs(real_part(q).coeffs[0]), abs(imag_scaled(q).coeffs[0]))
        else:
            h = Fraction(max(abs(real_part(q).to_complex().real),
                             abs(imag_scaled(q).to_complex().real))) - Fraction(1, 2**30)
        small = intersect_halfplanes(code_constraints(P, lam, w), half_width=h)
        assert small.polygon is not None and small.polygon.locate(q) != "interior"
        monkeypatch.setattr(obc.periodic, "intersect_halfplanes",
                            lambda cons, half_width, h=h: intersect_halfplanes(cons, h))
        assert capture_region(P, w, lam) is None, (w, lam)
        monkeypatch.undo()


def test_capture_region_needs_a_real_periodic_point():
    # the period-8 cycle appears only above lambda_2 = 0.7548...
    assert validate_periodic(SQ, P8, Fraction(1, 2)) is False
    assert capture_region(SQ, P8, Fraction(1, 2)) is None


def test_capture_region_needs_a_contraction(monkeypatch):
    # at lam = 1 the even word's fixed point is indeterminate; the rate is
    # rejected before any fixed point or tile is built, and captured_word
    # rejects it on entry, before any float step
    def no_tile(*args):
        raise AssertionError("capture_region built a tile")

    monkeypatch.setattr(obc.periodic, "tile_from_code", no_tile)
    for P, w in ((regular_ngon(12), (1, 4, 7, 10)), (SQ, P8)):
        for lam in (1, 0, Fraction(3, 2), 1.0, 1 + Fraction(1, 10**30)):
            with pytest.raises(ValueError):
                capture_region(P, w, lam)
            for steps in (0, 15, 100):
                with pytest.raises(ValueError):
                    captured_word(P, 3.0, 0.5, lam, steps, {})


def _float_box(K, pad):
    """Float extents of K in (x, ytilde), padded by pad on each side."""
    xs = [real_part(v).to_complex().real for v in K.vertices]
    ts = [imag_scaled(v).to_complex().real for v in K.vertices]
    return min(xs) - pad, max(xs) + pad, min(ts) - pad, max(ts) + pad


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(BOXED), st.integers(0, 2**20), st.integers(0, 2**20))
def test_float_capture_test_accepts_only_interior_points(case, i, j):
    # every dyadic point the float test accepts lies inside K by exact
    # location, and so does the point |W| exact steps later
    P, lam, w = case
    reg = capture_region(P, w, lam)
    x0, x1, t0, t1 = _float_box(reg.polygon, 0.25)
    x = x0 + (x1 - x0) * (i / 2**20)
    t = t0 + (t1 - t0) * (j / 2**20)
    if reg.holds(x, t):
        z = from_scaled(P.vertices[0].n, Fraction(x), Fraction(t))
        assert reg.polygon.locate(z) == "interior"
        end = code_endpoint(P, lam, z, w)
        assert end is not None and reg.polygon.locate(end) == "interior"


def test_float_capture_test_near_region_edges():
    # from the float nearest each edge's midpoint, step 2^-52 .. 2^-20 along
    # the edge's inner normal, both ways: no point is accepted unless exact
    # location puts it inside, and points 2^-30 or more inside are accepted
    for P, lam, w in BOXED:
        reg = capture_region(P, w, lam)
        K = reg.polygon
        n = P.vertices[0].n
        vs = K.vertices
        pts = [(real_part(v).to_complex().real, imag_scaled(v).to_complex().real) for v in vs]
        for k in range(len(vs)):
            (px, pt), (qx, qt) = pts[k], pts[(k + 1) % len(vs)]
            mx, mt = (px + qx) / 2, (pt + qt) / 2
            nx, nt = pt - qt, qx - px  # left of p -> q: inward for CCW K
            norm = math.hypot(nx, nt)
            nx, nt = nx / norm, nt / norm
            for e in range(20, 53):
                for side in (1, -1):
                    x, t = mx + side * 2.0**-e * nx, mt + side * 2.0**-e * nt
                    inside = K.locate(from_scaled(n, Fraction(x), Fraction(t))) == "interior"
                    if reg.holds(x, t):
                        assert inside, (w, lam, k, e, side)
                    elif side == 1 and e <= 30:
                        raise AssertionError(("not accepted", w, lam, k, e))
            assert not reg.holds(mx, mt) or K.locate(
                from_scaled(n, Fraction(mx), Fraction(mt))) == "interior"


def _fraction_lambda_k(k, tol):
    """The bisection lambda_k ran in Fractions before it ran in integers:
    the oracle its brackets must match bit for bit."""
    tol = Fraction(tol)
    if k == 1:
        return (Fraction(0), Fraction(0))
    lo = Fraction(0)
    hi = None
    probe = Fraction(1, 2)
    while hi is None:
        cand = 1 - probe
        if p_eval(k, cand) < 0:
            hi = cand
        else:
            lo = max(lo, cand)
            probe /= 2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        v = p_eval(k, mid)
        if v == 0:
            return (mid, mid)
        if v > 0:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def test_lambda_k_matches_the_fraction_bisection():
    for tol in (Fraction(1, 10**12), Fraction(1, 10**9), Fraction(1, 3), Fraction(1, 2**40), 1e-9):
        for k in range(1, 41):
            assert lambda_k(k, tol) == _fraction_lambda_k(k, tol), (k, tol)


def test_existence_condition_matches_p_eval():
    for k in range(1, 13):
        for lam in (Fraction(1, 2), Fraction(4, 5), Fraction(9, 10), Fraction(999, 1000),
                    *lambda_k(k, Fraction(1, 10**12)), Fraction(3, 7)):
            if 0 < lam < 1:
                assert existence_condition(k, lam) is (p_eval(k, lam) <= 0), (k, lam)


def test_lambda_k_brackets_pinned():
    # repr of the k = 1..12 brackets at 10^-12, recorded from the Fraction
    # bisection
    brackets = [lambda_k(k, Fraction(1, 10**12)) for k in range(1, 13)]
    assert hashlib.sha256(repr(brackets).encode()).hexdigest() == (
        "884351821f0b33347e897646130d875ca34a38838ab82c18417d062269299f20")
