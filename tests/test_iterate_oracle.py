"""``iterate`` against the stepwise loop it replaced.

``exact_orbits.reference_iterate`` is the orbit loop as it was before
orbits carried their float image: one ``reference_step`` per step, each
selecting its vertex with ``select_vertex`` at the point itself and
reducing the new point by the full gcd of its numerators and denominator,
and every point hashed for the repeat check.
``iterate`` must agree with it on every point, label and termination,
including where its carried error bound abstains and the image is re-seeded
from the exact point; ``step`` must agree with its first step.
"""

import math
import random
from fractions import Fraction

import pytest
from exact_orbits import reference_iterate

from obc import dynamics
from obc.dynamics import (
    _STEP_ERROR,
    OrbitRecord,
    _fresh_float,
    _select_margin,
    float_select,
    iterate,
    reflect_contract,
    select_vertex,
    step,
)
from obc.errors import ConductorMismatchError
from obc.field import _U, CycloNum
from obc.geometry import ConvexPolygon, from_scaled, regular_ngon
from obc.periodic import captured_word, code_fixed_point, tile_from_code
from obc.square import sk_code, square_polygon

POLYGONS = [(n, regular_ngon(n)) for n in (3, 4, 5, 7, 8, 12)] + [(4, square_polygon())]
RATES = (Fraction(1, 2), Fraction(4, 5), Fraction(99, 100), Fraction(1))


def _same_orbit(P, lam, x, steps):
    new, old = iterate(P, lam, x, steps), reference_iterate(P, lam, x, steps)
    for name in ("termination", "code", "points", "preperiod", "period", "singular_step"):
        assert getattr(new, name) == getattr(old, name), (name, x.serialize(), lam)
    if old.code:  # step is the first step of iterate
        assert step(P, lam, x) == (old.points[1], old.code[0])
    return new


@pytest.fixture
def abstentions(monkeypatch):
    """The points at which iterate's carried filter abstained and asked
    select_vertex, in order."""
    asked = []

    def counted(P, x):
        asked.append(x)
        return select_vertex(P, x)

    monkeypatch.setattr(dynamics, "select_vertex", counted)
    return asked


@pytest.mark.parametrize("lam", RATES, ids=str)
@pytest.mark.parametrize("n, P", POLYGONS, ids=[f"n{n}" for n, _ in POLYGONS[:-1]] + ["square_frame"])
def test_iterate_matches_the_stepwise_loop_on_random_starts(n, P, lam):
    rnd = random.Random(f"{n}-{len(P.vertices)}-{lam}-{P.vertices[0].serialize()}")
    steps = 400 if lam == 1 else 150
    for _ in range(3):
        x = from_scaled(n, Fraction(rnd.randint(-64, 64), 16), Fraction(rnd.randint(-64, 64), 16))
        _same_orbit(P, lam, x, steps)


def test_iterate_matches_the_stepwise_loop_at_special_starts():
    P = regular_ngon(5)
    inside = _same_orbit(P, Fraction(1, 2), from_scaled(5, Fraction(1, 10), Fraction(1, 10)), 10)
    assert inside.termination == "inside" and inside.singular_step is None
    v, w = P.vertices[0], P.vertices[1]
    ray = v - (w - v) * Fraction(3, 2)  # on the line of edge 1, beyond vertex 1
    hit = _same_orbit(P, Fraction(1, 2), ray, 10)
    assert (hit.termination, hit.singular_step) == ("hit_singular", 0)
    with pytest.raises(ConductorMismatchError):
        iterate(P, 1, from_scaled(7, 3, 1), 5)


@pytest.mark.parametrize("lam", (Fraction(1, 2), Fraction(1)), ids=str)
def test_iterate_matches_the_stepwise_loop_just_off_a_singular_ray(lam, abstentions):
    # pentagon starts 2^-10 ... 2^-80 off an edge ray, on both sides
    P = regular_ngon(5)
    v, w = P.vertices[0], P.vertices[1]
    ray = v - (w - v) * Fraction(3, 2)
    off = from_scaled(5, Fraction(1, 3), Fraction(1, 7))  # a direction across the ray
    for m in range(10, 81, 5):
        for sgn in (1, -1):
            _same_orbit(P, lam, ray + off * Fraction(sgn, 2**m), 300)
    assert abstentions  # the closest starts take the exact path


def _preimage(P, lam, y):
    """The point that the map sends to y, for a polygon symmetric under
    complex conjugation: its vertex u leaves P right of the ray from y,
    which is the mirror image of the forward selection at conj(y)."""
    sel = select_vertex(P, y.conj())
    assert sel.kind == "vertex"
    u = P.vertices[sel.label - 1].conj()
    return (u * (1 + lam) - y) * (1 / lam)


@pytest.mark.parametrize("lam", (Fraction(99, 100), Fraction(1)), ids=str)
@pytest.mark.parametrize("n", (5, 7, 12))
def test_iterate_reseeds_where_a_late_step_passes_near_a_singular_ray(n, lam, abstentions):
    # y lies 2^-m off a singular ray and x is its 120th preimage, so the
    # orbit of x reaches y (or, when it closes first, holds y in its cycle)
    # after its carried bound has grown; from 2^-44 on, the filter abstains
    # at a step past the start and the image is re-seeded there
    P = regular_ngon(n)
    v, w = P.vertices[0], P.vertices[1]
    for m in (20, 36, 44, 60):
        y = v - (w - v) * Fraction(31, 3) + from_scaled(n, Fraction(1, 2**m), Fraction(1, 2**m))
        x = y
        for _ in range(120):
            x = _preimage(P, lam, x)
        del abstentions[:]
        rec = _same_orbit(P, lam, x, 180)
        assert y in rec.points and rec.termination != "hit_singular", m
        late = [rec.points.index(z) for z in abstentions if z in rec.points]
        assert m < 44 or max(late, default=0) > 0, (m, late)


def _replay_carried_filter(P, lam, x, steps):
    """The steps of the exact orbit of x at which iterate's carried filter
    must abstain, replaying the recurrence that iterate's docstring proves;
    asserts at every step that the carried bound covers the error of the
    float image, against an integer enclosure of the exact point."""
    rec = reference_iterate(P, lam, x, steps)
    orders, extent = P.float_wedges(), P.float_extent()
    g, l = float(1 + lam), float(lam)
    grow = l * (1 + 8 * _U)
    fx, fy, d = _fresh_float(P, x)
    order = orders[0]
    abstained = []
    for k, (z, label) in enumerate(zip(rec.points, rec.code)):
        lo, hi, ilo, ihi = z.enclosure(96)
        s = z.den << 96
        for f, a, b in ((fx, lo, hi), (fy, ilo, ihi)):
            assert (Fraction(f) - Fraction(d)) * s <= a and b <= (Fraction(f) + Fraction(d)) * s, k
        w = max(abs(fx), abs(fy)) + extent
        row = float_select(order, fx, fy, _select_margin(w, d))
        if row is None:
            abstained.append(k)
            fx, fy, d = _fresh_float(P, z)
            w = max(abs(fx), abs(fy)) + extent
            row = orders[0][label - 1]
        assert row[0] == label, k
        fx, fy, d = g * row[1] - l * fx, g * row[2] - l * fy, grow * d + _STEP_ERROR * w
        order = orders[label]
    return abstained


@pytest.mark.parametrize("lam", (Fraction(99, 100), Fraction(1)), ids=str)
@pytest.mark.parametrize("n", (5, 7, 12))
def test_carried_bound_covers_the_error_and_sets_the_abstentions(n, lam, abstentions):
    # the orbits of the test above, whose late steps pass 2^-36 ... 2^-60
    # off a singular ray: the bound must hold at every step, and iterate
    # must abstain exactly where the bound cannot certify
    P = regular_ngon(n)
    v, w = P.vertices[0], P.vertices[1]
    for m in (36, 44, 60):
        y = v - (w - v) * Fraction(31, 3) + from_scaled(n, Fraction(1, 2**m), Fraction(1, 2**m))
        x = y
        for _ in range(120):
            x = _preimage(P, lam, x)
        del abstentions[:]
        rec = iterate(P, lam, x, 180)
        asked = [rec.points.index(z) for z in abstentions]
        assert asked == _replay_carried_filter(P, lam, x, 180), m


def test_carried_bound_covers_the_error_on_long_orbits():
    # 2 000 uncontracted steps outside the septagon, where the bound grows
    # a step at a time, and contracted square orbits with ~1000-bit points
    P7 = regular_ngon(7)
    assert _replay_carried_filter(P7, Fraction(1), CycloNum.parse("7:3/1,4/5,2/5,2/5,2/5,2/5"), 2000) == []
    for start in ("4:-7/16,-29/16", "4:5/4,-9/4"):
        assert _replay_carried_filter(regular_ngon(4), Fraction(1, 2), CycloNum.parse(start), 1000) == []


def test_iterate_closes_on_an_exact_contracted_periodic_point():
    SQ = square_polygon()
    lam = Fraction(9, 10)
    code = sk_code(2)
    q = code_fixed_point(SQ, code, lam)
    rec = _same_orbit(SQ, lam, q, 50)
    assert rec.termination == "exact_repeat"
    assert (rec.preperiod, rec.period) == (0, len(code))
    assert tuple(rec.code) == tuple(code)


def _random_point(rnd, n, phi):
    den = rnd.choice((1, 2, 3, 4, 6, 9, 12, 2**rnd.randint(0, 40) * 3**rnd.randint(0, 9)))
    return CycloNum(n, [Fraction(rnd.randint(-10**6, 10**6), den) for _ in range(phi)])


def test_reflect_contract_reduces_by_the_full_gcd():
    # the small gcd gcd(den, p q v.den^2) loses nothing against the gcd of
    # every numerator and the denominator, for any vertex denominator
    rnd = random.Random(23)
    tile = tile_from_code(regular_ngon(12), (3, 6, 9, 12)).polygon
    assert max(v.den for v in tile.vertices) > 1
    vertices = {5: list(regular_ngon(5).vertices), 12: list(tile.vertices)}
    phis = {5: 4, 12: 4}
    reduced = 0
    for _ in range(3000):
        n = rnd.choice((5, 12))
        v = rnd.choice(vertices[n]) if rnd.random() < 0.5 else _random_point(rnd, n, phis[n])
        x = _random_point(rnd, n, phis[n])
        p = rnd.choice((1, 2, 3, 4, 9, 10, 99, 2**30))
        q = p + rnd.choice((0, 1, 2, 3, 5, 6, 8, 9, 15))
        g = math.gcd(p, q)
        p, q = p // g, q // g
        a, b = (p + q) * x.den, p * v.den
        num = [a * vk - b * xk for vk, xk in zip(v.num, x.num)]
        den = q * v.den * x.den
        z = reflect_contract(v, p, q, x)
        full = math.gcd(den, *num)
        assert (z.num, z.den) == (tuple(c // full for c in num), den // full)
        reduced += full > 1
    assert reduced > 1000, reduced


# a quadrilateral with vertex dens 3, 1, 1, 3: at lam = p/q the repeat check
# stops at a den divisible by 3q, and a later den can lose its factor 3
MIXED_DENS = ConvexPolygon([from_scaled(4, Fraction(4, 3), 0), from_scaled(4, 0, 1),
                            from_scaled(4, -1, 0), from_scaled(4, Fraction(1, 3), Fraction(-2, 3))])
OPEN_RATES = (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(9, 10))
OPEN_POLYGONS = [(n, regular_ngon(n)) for n in (4, 5, 7)] + [(4, square_polygon()), (4, MIXED_DENS)]


@pytest.fixture
def hashed(monkeypatch):
    """The field elements hashed while the test runs, in order."""
    seen = []
    real = CycloNum.__hash__

    def counted(z):
        seen.append(z)
        return real(z)

    monkeypatch.setattr(CycloNum, "__hash__", counted)
    return seen


@pytest.mark.parametrize("lam", OPEN_RATES, ids=str)
@pytest.mark.parametrize("n, P", OPEN_POLYGONS, ids=["n4", "n5", "n7", "square_frame", "vertex_den_3"])
def test_iterate_hashes_until_the_orbit_provably_stays_open(n, P, lam):
    # random starts over dens 1, 3, 16 and 48, and for each that runs to
    # the cap the exact fixed point of the word its float orbit is captured
    # by, which closes: the same record as hashing every point
    rnd = random.Random(f"open-{n}-{len(P.vertices)}-{lam}")
    closed = 0
    for _ in range(4):
        x = from_scaled(n, Fraction(rnd.randint(-64, 64), rnd.choice((1, 3, 16, 48))),
                        Fraction(rnd.randint(-64, 64), rnd.choice((1, 3, 16, 48))))
        rec = _same_orbit(P, lam, x, 120)
        if rec.termination != "cap_reached":
            continue
        f = x.to_complex()
        word = captured_word(P, f.real, f.imag, lam, 3000, {})
        if word is None:
            continue
        q = code_fixed_point(P, word, lam)
        cycle = _same_orbit(P, lam, q, 3 * len(word))
        assert cycle.termination == "exact_repeat" and cycle.preperiod == 0
        assert tuple(cycle.code) == word[:cycle.period]
        closed += 1
    assert closed


def test_iterate_hashes_no_point_of_an_open_contracted_orbit(hashed):
    # lam = 1/2 outside the square from starts over den 16 and 1: free = 2
    # divides the den of the first at once and of the second after a step
    P = regular_ngon(4)
    for start in (from_scaled(4, Fraction(5, 2), Fraction(7, 16)), from_scaled(4, 3, 1)):
        del hashed[:]
        rec = iterate(P, Fraction(1, 2), start, 500)
        assert rec.termination == "cap_reached"
        assert len(hashed) <= 1 and all(z == start for z in hashed)
    # a closed orbit hashes every point, as at lam = 1
    q = code_fixed_point(P, (1, 2, 3, 4), Fraction(1, 2))
    del hashed[:]
    rec = iterate(P, Fraction(1, 2), q, 20)
    assert (rec.termination, rec.period) == ("exact_repeat", 4) and len(hashed) == 5
