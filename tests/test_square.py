"""Square family: threshold polynomials, closed forms, degenerate orbits,
attractor counting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obc.periodic
from obc.field import CycloNum, sign_of_real
from obc.geometry import (
    from_scaled,
    imag_scaled,
    intersect_halfplanes,
    point_xy,
    real_part,
    regular_ngon,
)
from obc.periodic import (
    capture_box,
    code_constraints,
    code_endpoint,
    code_fixed_point,
    compose_code_map,
    validate_periodic,
)
from obc.square import (
    count_attractors_detail,
    degenerate_orbit,
    existence_condition,
    existence_identity_holds,
    lambda_k,
    p_eval,
    qk_closed_form,
    sk_code,
    square_polygon,
    yhat,
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


def test_degenerate_orbit_k2():
    lo, hi = lambda_k(2, Fraction(1, 10**9))
    mid = (lo + hi) / 2
    d = degenerate_orbit(2, mid)
    assert len(d.transitions) == 8
    assert d.all_identities_hold()
    # exact wedge membership straddles the threshold root
    for k in (2, 3):
        lo, hi = lambda_k(k, 1e-9)
        assert degenerate_orbit(k, hi).all_in_wedges()
        assert not degenerate_orbit(k, lo).all_in_wedges()
    # quarter-turn symmetry of the point set
    for fam_a, fam_b in ((d.E, d.F), (d.F, d.G), (d.G, d.H)):
        for a, b in zip(fam_a, fam_b):
            ax, ay = point_xy(a)
            bx, by = point_xy(b)
            assert abs(complex(bx, by) - complex(ax, ay) * 1j) < 1e-12
    # boundary value: the last subdivision point sits near y = -1
    yh = yhat(2, mid)
    assert abs(float(yh + 1)) < 1e-7
    assert imag_scaled(d.E[-1]).coeffs[0] == yh


def test_degenerate_orbit_k1_collapses():
    d = degenerate_orbit(1, Fraction(1, 10))
    assert len(d.E) == 1
    assert len(d.transitions) == 4
    assert d.all_identities_hold()
    # this is the valid index-1 orbit, strictly inside its wedges
    assert d.all_in_wedges()


def test_yhat_threshold_equivalence():
    # yhat <= -1 exactly when p_k <= 0
    for k in (2, 3):
        lo, hi = lambda_k(k, Fraction(1, 10**9))
        below = lo - Fraction(1, 50)
        above = hi + Fraction(1, 50)
        assert yhat(k, below) > -1
        assert yhat(k, above) < -1


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
# stable period-4 tile (1, 4, 7, 10) near lam = 1, whose box lives in
# (x, ytilde) with ytilde = y / sin(pi/6)
BOXED = [(SQ, lam, w) for lam, (_, words, _) in PINNED_COUNTS.items() for w in words]
BOXED.append((regular_ngon(12), Fraction(999, 1000), (1, 4, 7, 10)))


def _box_signs(box, z):
    """Exact signs of z's (x, ytilde) against the box: all > 0 inside."""
    x0, x1, y0, y1 = (Fraction(b) for b in box)
    x, y = real_part(z), imag_scaled(z)
    return [sign_of_real(d) for d in (x - x0, x1 - x, y - y0, y1 - y)]


def test_capture_box_encloses_q_and_its_corners_follow_the_word():
    for P, lam, w in BOXED:
        n = P.vertices[0].n
        box = capture_box(P, w, lam)
        assert box is not None, (n, lam, w)
        assert min(_box_signs(box, code_fixed_point(P, w, lam))) > 0
        x0, x1, y0, y1 = (Fraction(b) for b in box)
        for x in (x0, x1):
            for y in (y0, y1):
                assert code_endpoint(P, lam, from_scaled(n, x, y), w) is not None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BOXED), st.integers(0, 2**20), st.integers(0, 2**20))
def test_dyadic_points_in_the_capture_box_stay_in_it(case, i, j):
    P, lam, w = case
    box = capture_box(P, w, lam)
    x0, x1, y0, y1 = (Fraction(b) for b in box)
    z = from_scaled(P.vertices[0].n, x0 + (x1 - x0) * Fraction(i, 2**20),
                    y0 + (y1 - y0) * Fraction(j, 2**20))
    end = code_endpoint(P, lam, z, w)
    assert end is not None
    assert end == compose_code_map(P, w, lam, z)
    assert min(_box_signs(box, end)) >= 0


def test_capture_box_encloses_q_even_off_centre(monkeypatch):
    # move the float centre by the unshifted box's half-width: small boxes
    # around it can still follow the word yet miss q_W, and only the exact
    # enclosure check rejects them
    orig = CycloNum.to_complex
    for P, lam, w in BOXED:
        x0, x1, _, _ = capture_box(P, w, lam)
        h = (x1 - x0) / 2
        monkeypatch.setattr(CycloNum, "to_complex", lambda z, h=h: orig(z) + h)
        box = capture_box(P, w, lam)
        monkeypatch.setattr(CycloNum, "to_complex", orig)
        if box is not None:
            assert min(_box_signs(box, code_fixed_point(P, w, lam))) > 0, (w, lam)


def test_capture_box_needs_a_real_periodic_point():
    # the period-8 cycle appears only above lambda_2 = 0.7548...
    assert validate_periodic(SQ, P8, Fraction(1, 2)) is False
    assert capture_box(SQ, P8, Fraction(1, 2)) is None


def test_capture_box_needs_a_contraction(monkeypatch):
    # at lam = 1 the even word's fixed point is indeterminate; the rate is
    # rejected before any fixed point or tile is built
    def no_tile(*args):
        raise AssertionError("capture_box built a tile")

    monkeypatch.setattr(obc.periodic, "tile_from_code", no_tile)
    for P, w in ((regular_ngon(12), (1, 4, 7, 10)), (SQ, P8)):
        for lam in (1, 0, Fraction(3, 2)):
            with pytest.raises(ValueError):
                capture_box(P, w, lam)
