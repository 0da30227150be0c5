"""Vertex selection, stepping, orbit iteration, codes."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from exact_orbits import in_wedge
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obc.dynamics import (
    _FLOAT_MARGIN,
    Code,
    _fresh_float,
    _select_exhaustive,
    _select_margin,
    float_select,
    iterate,
    least_rotation,
    orbit_bound,
    orbit_to_text,
    primitive_period,
    select_vertex,
    step,
)
from obc.errors import StepDomainError
from obc.field import CycloNum, sign_of_real
from obc.geometry import cross_scaled, from_scaled, point_xy, regular_ngon
from obc.square import square_polygon

rng = random.Random(11)

SQ = square_polygon()


def pt4(x, y):
    return from_scaled(4, Fraction(x), Fraction(y))


def test_float_select_screens_with_margin():
    wedges = SQ.float_wedges()[0]
    assert float_select(wedges, 3.0, 0.0)[0] == select_vertex(SQ, pt4(3, 0)).label
    assert float_select(wedges, 3.0, 1.0) is None       # on the singular ray
    assert float_select(wedges, 0.0, 0.0) is None       # inside the polygon
    # within the margin of the singular ray the screen abstains; the exact
    # path still decides the point
    near = pt4(3, 1 - Fraction(1, 10**14))
    assert float_select(wedges, 3.0, 1.0 - 1e-14) is None
    assert select_vertex(SQ, near).kind == "vertex"


WEDGE_POLYGONS = [(n, regular_ngon(n)) for n in (3, 4, 5, 7, 12)] + [(4, SQ)]


@pytest.mark.parametrize("n, P", WEDGE_POLYGONS)
def test_float_wedge_table_layout(n, P):
    fv = P.float_vertices()
    m = len(fv)
    h = (m - 1) // 2
    orders = P.float_wedges()
    assert P.float_wedges() is orders           # built once per polygon
    assert len(orders) == m + 1
    assert [row[0] for row in orders[0]] == list(range(1, m + 1))
    for a, order in enumerate(orders):
        assert sorted(row[0] for row in order) == list(range(1, m + 1))
        for row in order:
            b = row[0] - 1
            assert row[1:] == (*fv[b], *fv[(b + 1) % m], *fv[b - 1])
        if a:
            assert order[0][0] == (a - 1 + h) % m + 1
            # then alternating outwards: one past the opposite vertex, one before
            assert [row[0] for row in order[1:3]] == [(a + h) % m + 1, (a - 2 + h) % m + 1]
    if n == 5:
        assert [row[0] for row in orders[1]] == [3, 4, 2, 5, 1]


def _dyadic(draw, bits, exps):
    return Fraction(draw(st.integers(-(2**bits), 2**bits)), 2 ** draw(exps))


@st.composite
def _screen_points(draw):
    """(P, z): z exact with dyadic parameters out to radius about 1e6; half of
    them a dyadic step off a point of a singular ray (an edge line beyond
    the edge)."""
    n, P = draw(st.sampled_from(WEDGE_POLYGONS))
    if draw(st.booleans()):
        exps = st.integers(20, 60)  # |x|, |y~| <= 2**20
        return P, from_scaled(n, _dyadic(draw, 40, exps), _dyadic(draw, 40, exps))
    m = len(P.vertices)
    i = draw(st.integers(0, m - 1))
    v, w = P.vertices[i], P.vertices[(i + 1) % m]
    t = Fraction(draw(st.integers(0, 2**20)), 2**20) * 2 ** draw(st.integers(0, 20))
    t = 1 + t if draw(st.booleans()) else -t
    exps = st.integers(20, 60)
    off = from_scaled(n, _dyadic(draw, 3, exps), _dyadic(draw, 3, exps))
    return P, v + (w - v) * t + off


@settings(max_examples=300, deadline=None)
@given(_screen_points())
@example((SQ, pt4(-1, 10**6)))  # on a singular ray; to_complex puts ~6e-11 into x
def test_float_select_answer_does_not_depend_on_the_order(case):
    """Every order of the wedge table gives the label of orders[0].  A label
    the exact wedge test rejects is a float rounding error: the rejecting
    edge value is within the rounding band of the orientations, which grows
    like |z|^2 while the margin stays 1e-12."""
    P, z = case
    f = z.to_complex()
    orders = P.float_wedges()
    first = float_select(orders[0], f.real, f.imag)
    label = None if first is None else first[0]
    for order in orders[1:]:
        row = float_select(order, f.real, f.imag)
        assert (None if row is None else row[0]) == label
    if label is None or in_wedge(P, label, z):
        return
    band = 2.0**-48 * (abs(f) + 2) ** 2
    scale = math.sin(2 * math.pi / z.n)
    for i, bad in ((label - 1, P.edge_sign(label - 1, z) <= 0),
                   (label - 2, P.edge_sign(label - 2, z) >= 0)):
        if bad:
            d = P.vertices[(i + 1) % len(P.vertices)] - P.vertices[i]
            assert abs(cross_scaled(d, z - P.vertices[i]).to_complex().real) * scale <= band


def test_select_vertex_square_examples():
    s = select_vertex(SQ, pt4(3, 0))
    assert s.kind == "vertex"
    assert point_xy(SQ.vertices[s.label - 1]) == (1.0, 1.0)
    assert select_vertex(SQ, pt4(3, 1)).kind == "singular"
    assert select_vertex(SQ, pt4(0, 0)).kind == "inside"
    assert select_vertex(SQ, pt4(1, 1)).kind == "inside"
    assert select_vertex(SQ, pt4(Fraction(1, 2), 1)).kind == "inside"


def test_select_vertex_pentagon_example():
    P5 = regular_ngon(5)
    s = select_vertex(P5, from_scaled(5, 3, 0))
    assert s.kind == "vertex" and s.label == 2
    # exhaustive float cross-check of the defining property
    x = (3.0, 0.0)
    v = point_xy(P5.vertices[1])
    for u in P5.vertices:
        ux, uy = point_xy(u)
        cross = (v[0] - x[0]) * (uy - x[1]) - (v[1] - x[1]) * (ux - x[0])
        assert cross > -1e-12


def test_select_vertex_matches_exhaustive_on_random_points():
    for n in (5, 7):
        P = regular_ngon(n)
        for _ in range(40):
            z = from_scaled(n, Fraction(rng.randint(-64, 64), 16),
                            Fraction(rng.randint(-64, 64), 16))
            fast = select_vertex(P, z)
            slow = _select_exhaustive(P, z)
            assert (fast.kind, fast.label) == (slow.kind, slow.label)


def _same_selection(P, z):
    """The exact selection at z and whether the proved margin certified a
    vertex, asserting that select_vertex equals the exact selection and
    that a certified vertex is the exact one."""
    fast, slow = select_vertex(P, z), _select_exhaustive(P, z)
    assert (fast.kind, fast.label, fast.candidates) == (
        slow.kind, slow.label, slow.candidates), z
    fx, fy, e = _fresh_float(P, z)
    margin = _select_margin(max(abs(fx), abs(fy)) + P.float_extent(), e)
    row = float_select(P.float_wedges()[0], fx, fy, margin)
    if row is not None:
        assert (slow.kind, slow.label) == ("vertex", row[0]), z
    return slow, row is not None


def test_certified_screen_agrees_with_the_exact_path_near_singular_rays():
    # points of a singular ray (an edge line beyond the edge) out to about
    # 10^6 sides, moved off it by a dyadic 2^-60..1 in each coordinate or
    # not at all; the absolute margin 1e-12 screens some of them to a wrong
    # label, which the proved margin must never do
    polygons = [(n, regular_ngon(n)) for n in (3, 4, 5, 7, 12, 127)] + [(4, SQ)]
    rnd = random.Random(21)
    certified = screened_wrong = 0
    for n, P in polygons:
        vs = P.vertices
        m = len(vs)
        for _ in range(8 if n == 127 else 150):  # 127 exact signs take ~0.1 s
            i = rnd.randrange(m)
            v, w = vs[i], vs[(i + 1) % m]
            t = Fraction(rnd.randint(1, 2**20), 2**20) * 2 ** rnd.randint(0, 20)
            ray = v + (w - v) * (1 + t) if rnd.random() < 0.5 else v - (w - v) * t
            e = Fraction(1, 2 ** rnd.randint(0, 60))
            z = ray + from_scaled(n, e * rnd.choice((-1, 0, 1)), e * rnd.choice((-1, 0, 1)))
            slow, proved = _same_selection(P, z)
            certified += proved
            f = z.to_complex()
            row = float_select(P.float_wedges()[0], f.real, f.imag, _FLOAT_MARGIN)
            screened_wrong += row is not None and (slow.kind, slow.label) != ("vertex", row[0])
    assert certified >= 500 and screened_wrong >= 20, (certified, screened_wrong)
    far = pt4(-1, 10**6)  # on the square frame's singular ray x = -1
    slow, proved = _same_selection(SQ, far)
    assert slow.kind == "singular" and not proved


def test_certified_screen_agrees_with_the_exact_path_on_long_orbits():
    # the exact orbit points of lambda < 1, whose coefficients grow by about
    # log2(1/lambda) bits a step, are certified by the float filter alone
    for n, P in ((4, SQ), (5, regular_ngon(5)), (7, regular_ngon(7)), (12, regular_ngon(12))):
        for lam, steps in ((Fraction(1, 2), 1010), (Fraction(999, 1000), 110)):
            rec = iterate(P, lam, from_scaled(n, Fraction(5, 2), Fraction(7, 16)), steps)
            assert rec.termination == "cap_reached", (n, lam)
            big = [z for z in rec.points if z.den.bit_length() >= 1000]
            assert len(big) >= 10, (n, lam)
            for z in big[-10:]:
                assert _same_selection(P, z)[1], (n, lam)


def test_contracted_orbit_points_hash_apart():
    # int hashes are residues mod 2^61 - 1, so the denominators 2^k of this
    # orbit repeat theirs with k mod 61; without the bit length in the hash
    # its 5 001 points had 244 distinct hashes, and iterate's dictionary
    # compared ~10^5 points for equality
    rec = iterate(regular_ngon(4), Fraction(1, 2),
                  from_scaled(4, Fraction(5, 2), Fraction(7, 16)), 5000)
    assert len(rec.points) == 5001
    assert len({hash(z) for z in rec.points}) == 5001


def _oracle(P, x):
    """(selection kind, candidate labels, location) from the defining predicates.

    x is in the closed polygon when no edge v_i -> v_(i+1) has it strictly
    on its right; otherwise vertex i is a candidate when
    cross(v_i - x, v_j - x) >= 0 for every j != i.
    """
    vs = P.vertices
    m = len(vs)
    sides = [sign_of_real(cross_scaled(vs[(i + 1) % m] - vs[i], x - vs[i]))
             for i in range(m)]
    if min(sides) >= 0:
        return "inside", (), ("boundary" if 0 in sides else "interior")
    cands = tuple(
        i + 1 for i in range(m)
        if all(sign_of_real(cross_scaled(vs[i] - x, vs[j] - x)) >= 0
               for j in range(m) if j != i))
    return ("vertex" if len(cands) == 1 else "singular"), cands, "exterior"


def _oracle_points(P, n):
    vs = P.vertices
    m = len(vs)
    pts = [from_scaled(n, Fraction(rng.randint(-48, 48), 16),
                       Fraction(rng.randint(-48, 48), 16)) for _ in range(30)]
    for i in range(m):
        p, q = vs[i], vs[(i + 1) % m]
        # t outside [0, 1]: on the line of an edge, off the polygon (singular);
        # t in [0, 1]: on the edge, t = 0 at a vertex (inside)
        for t in (Fraction(-3), Fraction(-1, 2), Fraction(3, 2), Fraction(5),
                  Fraction(0), Fraction(1, 3), Fraction(1, 2)):
            pts.append(p + (q - p) * t)
    # points with ~1000-bit coefficients from an exact lambda = 1/2 orbit
    while True:
        x = from_scaled(n, Fraction(rng.randint(-48, 48), 16),
                        Fraction(rng.randint(-48, 48), 16))
        if select_vertex(P, x).kind == "vertex":
            break
    rec = iterate(P, Fraction(1, 2), x, 1000)
    pts.extend(rec.points[-1::-100])
    return pts


def test_selection_and_locate_match_defining_predicate():
    kinds = {"vertex": 0, "singular": 0, "inside": 0}
    polygons = [(n, regular_ngon(n)) for n in (3, 4, 5, 6, 7, 8, 12)]
    polygons.append((4, SQ))
    for n, P in polygons:
        for x in _oracle_points(P, n):
            kind, cands, loc = _oracle(P, x)
            kinds[kind] += 1
            assert P.locate(x) == loc, (n, x)
            for sel in (select_vertex(P, x), _select_exhaustive(P, x)):
                assert sel.kind == kind, (n, x, sel)
                if kind == "vertex":
                    assert (sel.label,) == cands, (n, x, sel)
                elif kind == "singular":
                    assert sel.candidates == cands, (n, x, sel)
    assert min(kinds.values()) >= 50, kinds


# sha256 of "termination;code;last point" for the first criterion-07 orbits
# (lambda = 1/2, n = 4, 1000 steps), recorded before stepping moved to one
# integer combination per step
_PINNED_ORBITS = (
    ("4:-7/16,-29/16", "49d858431a32f8b557cd9f3ee76506e782300368b351d22b5fbf93958c826c07"),
    ("4:1/8,35/16", "2af2acd5ae0d1c89addd5431c2141a410530e26a94c4b708e5768cf92baa1c7d"),
    ("4:-21/8,-39/16", "bce3f1c128fb93d0eb4bd710bede962ebbb3c253bd00caa5554bd501b7c5e980"),
    ("4:5/4,-9/4", "686f805d9d7ddcc723417c000e0f03dae26232108fc49e48e84fda834ae758a5"),
)


def test_contracted_orbits_pinned():
    P = regular_ngon(4)
    for start, digest in _PINNED_ORBITS:
        rec = iterate(P, Fraction(1, 2), CycloNum.parse(start), 1000)
        code = ",".join(str(a) for a in rec.code)
        text = f"{rec.termination};{code};{rec.points[-1].serialize()}"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, start


def test_step_examples():
    y, lbl = step(SQ, 1, pt4(3, 0))
    assert point_xy(y) == (-1.0, 2.0)
    y, _ = step(SQ, Fraction(1, 2), pt4(3, 0))
    assert point_xy(y) == (0.0, 1.5)
    with pytest.raises(StepDomainError) as err:
        step(SQ, 1, pt4(0, 0))
    assert err.value.kind == "inside"
    with pytest.raises(StepDomainError) as err:
        step(SQ, 1, pt4(3, 1))
    assert err.value.kind == "singular"


def test_step_ratio_invariant():
    for n in (4, 5, 7):
        P = regular_ngon(n)
        for _ in range(25):
            lam = Fraction(rng.randint(1, 10), 10)  # includes the reflection case
            x = from_scaled(n, Fraction(rng.randint(-40, 40), 8),
                            Fraction(rng.randint(-40, 40), 8))
            sel = select_vertex(P, x)
            if sel.kind != "vertex":
                continue
            y, lbl = step(P, lam, x)
            v = P.vertices[lbl - 1]
            assert y - v == (x - v) * (-lam)


def test_step_rotation_equivariance():
    for n in (4, 5, 6, 7):
        P = regular_ngon(n)
        z = CycloNum.zeta(n)
        for _ in range(15):
            lam = Fraction(rng.randint(1, 10), 10)
            x = from_scaled(n, Fraction(rng.randint(-40, 40), 8),
                            Fraction(rng.randint(-40, 40), 8))
            if select_vertex(P, x).kind != "vertex":
                continue
            y, lbl = step(P, lam, x)
            y2, lbl2 = step(P, lam, x * z)
            assert y2 == y * z
            assert lbl2 == lbl % n + 1


def test_iterate_square_period_four():
    rec = iterate(SQ, 1, pt4(-2, 0), 64)
    assert rec.termination == "exact_repeat"
    assert rec.preperiod == 0 and rec.period == 4
    assert sorted(rec.cycle_code()) == [1, 2, 3, 4]
    assert rec.points[4] == rec.points[0]


def test_iterate_contracted_orbit_locks_onto_period_four_code():
    rec = iterate(SQ, Fraction(1, 2), pt4(Fraction(-11, 2), Fraction(1, 4)), 150)
    tail = rec.code[-8:]
    assert tail[:4] == tail[4:]
    assert sorted(tail[:4]) == [1, 2, 3, 4]


def test_iterate_singular_and_cap():
    rec = iterate(SQ, 1, pt4(3, 1), 10)
    assert rec.termination == "hit_singular" and rec.singular_step == 0
    rec2 = iterate(SQ, Fraction(1, 2), pt4(3, 0), 5)
    assert rec2.termination == "cap_reached" and len(rec2.code) == 5


def test_orbit_bound_examples():
    assert abs(orbit_bound(SQ, Fraction(1, 2)) - 3 * math.sqrt(2)) < 1e-9
    b1 = orbit_bound(SQ, Fraction(1, 2))
    b2 = orbit_bound(SQ, Fraction(3, 4))
    b3 = orbit_bound(SQ, Fraction(9, 10))
    assert b1 < b2 < b3
    with pytest.raises(ValueError):
        orbit_bound(SQ, 1)


def test_boundedness_spot_check():
    lam = Fraction(1, 2)
    bound = 3.0  # (1 + lam)/(1 - lam) times the vertices' sup norm, 1
    done = 0
    while done < 15:
        x = pt4(Fraction(rng.randint(-40, 40), 16), Fraction(rng.randint(-40, 40), 16))
        if select_vertex(SQ, x).kind != "vertex":
            continue
        rec = iterate(SQ, lam, x, 400)
        if rec.termination == "hit_singular":
            continue
        for p in rec.points[200:]:
            px, py = point_xy(p)
            assert max(abs(px), abs(py)) <= bound + 1e-9
        done += 1


def _grid_index(p):
    # containing grid square of the square-frame tiling, or None on lines
    x, y = p
    a, b = round(x / 2), round(y / 2)
    if abs(x - 2 * a) < 0.999 and abs(y - 2 * b) < 0.999 and (a, b) != (0, 0):
        return abs(a) + abs(b)
    return None


def test_monotone_grid_index():
    lam = Fraction(7, 10)
    done = 0
    while done < 12:
        x = pt4(Fraction(rng.randint(-100, 100), 16), Fraction(rng.randint(-100, 100), 16))
        if select_vertex(SQ, x).kind != "vertex":
            continue
        rec = iterate(SQ, lam, x, 200)
        indices = [i for i in (_grid_index(point_xy(p)) for p in rec.points) if i is not None]
        if len(indices) < 5:
            continue
        assert all(a >= b for a, b in zip(indices, indices[1:]))
        done += 1


def test_orbit_to_text():
    rec = iterate(SQ, 1, pt4(-2, 0), 6)
    text = orbit_to_text(rec)
    lines = text.strip().split("\n")
    assert lines[-1].startswith("code=")
    assert len(lines) == len(rec.points) + 1
    assert CycloNum.parse(lines[0]) == rec.points[0]


def test_least_rotation_against_bruteforce():
    for _ in range(300):
        w = [rng.randint(1, 5) for _ in range(rng.randint(1, 10))]
        k = least_rotation(w)
        assert tuple(w[k:] + w[:k]) == min(tuple(w[i:] + w[:i]) for i in range(len(w)))


def test_code_canonicalization():
    c = Code([3, 4, 1, 2])
    assert c.canonical() == (1, 2, 3, 4)
    assert c.period == 4
    odd = Code([2, 1, 3])
    assert len(odd.canonical()) == 6
    assert odd.period == 3
    doubled = Code([2, 1, 3, 2, 1, 3])
    assert doubled.canonical() == odd.canonical()
    assert doubled.period == 3
    assert primitive_period((1, 2, 1, 2)) == 2
    assert Code.parse("3,4,1,2") == c
    assert c.serialize() == "3,4,1,2"
    with pytest.raises(ValueError):
        Code([])
    with pytest.raises(ValueError):
        Code([0, 1])
    with pytest.raises(ValueError):
        Code([1, 9]).validate_labels(4)
