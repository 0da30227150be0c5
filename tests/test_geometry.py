"""Exact planar predicates, half-plane intersections, metric utilities."""

import math
import random
from fractions import Fraction

import pytest
from exact_halfplanes import clipped_pairs
from exact_halfplanes import intersect_halfplanes as exact_intersect
from hypothesis import given, settings
from hypothesis import strategies as st

import obc.geometry
from obc.dynamics import _select_exhaustive, iterate, select_vertex
from obc.errors import ConductorMismatchError, GeometryError
from obc.field import CycloNum, approximate, sign_of_real
from obc.geometry import (
    ConvexPolygon,
    HalfPlane,
    cross_scaled,
    from_scaled,
    halfplane_left_of,
    hausdorff_distance,
    imag_scaled,
    intersect_halfplanes,
    orientation,
    point_xy,
    real_part,
    regular_ngon,
)
from obc.periodic import code_constraints, code_region

rng = random.Random(77)


def pt4(x, y):
    return from_scaled(4, Fraction(x), Fraction(y))


def rand_pt(n, lim=24, den=8):
    return from_scaled(n, Fraction(rng.randint(-lim * den, lim * den), den),
                       Fraction(rng.randint(-lim * den, lim * den), den))


def test_regular_ngon_examples():
    P4 = regular_ngon(4)
    assert [point_xy(v) for v in P4.vertices] == [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    P5 = regular_ngon(5)
    z = CycloNum.zeta(5)
    assert real_part(P5.vertices[1]) == (z + CycloNum.zeta(5, 4)) * Fraction(1, 2)
    P3 = regular_ngon(3)
    assert (P3.vertices[0] + P3.vertices[1] + P3.vertices[2]).is_zero()
    with pytest.raises(GeometryError):
        regular_ngon(2)


def test_orientation_examples():
    assert orientation(pt4(0, 0), pt4(1, 0), pt4(0, 1)) == 1
    assert orientation(pt4(0, 0), pt4(1, 0), pt4(2, 0)) == 0
    assert orientation(pt4(3, 0), pt4(1, 1), pt4(-1, -1)) == 1


def test_orientation_antisymmetry():
    for n in (4, 5, 7):
        for _ in range(30):
            a, b, c = rand_pt(n), rand_pt(n), rand_pt(n)
            s = orientation(a, b, c)
            assert orientation(b, a, c) == -s
            assert orientation(a, c, b) == -s
            assert orientation(c, b, a) == -s


def _side(hp, z):
    # the exact sign of hp's value at z
    return sign_of_real(hp.a * real_part(z) + hp.b * imag_scaled(z) + hp.c, _checked=True)


def test_real_imag_parts_are_real():
    for n in (3, 5, 8):
        z = rand_pt(n)
        assert real_part(z).is_real()
        assert imag_scaled(z).is_real()


def _strip_constraints():
    one = CycloNum.one(4)
    zero = CycloNum.zero(4)
    three = CycloNum.from_rational(4, 3)
    return [
        HalfPlane(-one, zero, -one),   # x < -1
        HalfPlane(one, zero, three),   # x > -3
        HalfPlane(zero, one, one),     # y > -1
        HalfPlane(zero, -one, one),    # y < 1
    ]


def test_halfplane_intersection_square():
    res = intersect_halfplanes(_strip_constraints())
    assert res.kind == "polygon"
    pts = sorted(point_xy(v) for v in res.polygon.vertices)
    assert pts == [(-3.0, -1.0), (-3.0, 1.0), (-1.0, -1.0), (-1.0, 1.0)]


def test_halfplane_intersection_invariances():
    cons = _strip_constraints()
    base = intersect_halfplanes(cons).polygon
    shuffled = cons[::-1]
    assert intersect_halfplanes(shuffled).polygon == base
    assert intersect_halfplanes(cons + [cons[0], cons[2]]).polygon == base


def test_halfplane_intersection_constraints_hold_on_output():
    cons = _strip_constraints()
    poly = intersect_halfplanes(cons).polygon
    for hp in cons:
        for v in poly.vertices:
            assert _side(hp, v) >= 0
        assert _side(hp, poly.centroid()) > 0


def test_halfplane_intersection_empty_and_degenerate():
    one = CycloNum.one(4)
    zero = CycloNum.zero(4)
    res = intersect_halfplanes([HalfPlane(one, zero, zero), HalfPlane(-one, zero, zero)])
    assert res.kind in ("empty", "lower_dimensional")
    assert res.polygon is None
    res2 = intersect_halfplanes([HalfPlane(one, zero, zero),
                                 HalfPlane(-one, zero, zero),
                                 HalfPlane(zero, one, one), HalfPlane(zero, -one, one)])
    assert res2.kind == "lower_dimensional"


# p/d + (q/d)*(zeta + conj(zeta)): a real field element, irrational for n = 5, 7
# when q != 0
_coeff = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 3))
# rational parts of the offsets c lean positive, so the origin often survives
# and about a quarter of the draws are bounded polygons
_offset = st.tuples(st.integers(-1, 6), st.integers(-6, 6), st.integers(1, 3))


def _real(n, coeff):
    p, q, d = coeff
    two_cos = CycloNum.zeta(n) + CycloNum.zeta(n, n - 1)
    return (CycloNum.from_rational(n, p) + two_cos * q) * Fraction(1, d)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((4, 5, 7)),
       st.lists(st.tuples(_coeff, _coeff, _offset), min_size=1, max_size=7))
def test_halfplane_intersection_property(n, planes):
    cons = []
    for ca, cb, cc in planes:
        a, b, c = (_real(n, x) for x in (ca, cb, cc))
        if not (a.is_zero() and b.is_zero()):
            cons.append(HalfPlane(a, b, c))
    if not cons:
        return
    res = intersect_halfplanes(cons)
    if res.polygon is None:
        assert res.kind in ("empty", "lower_dimensional")
        return
    vs = res.polygon.vertices
    for hp in cons:
        assert all(_side(hp, v) >= 0 for v in vs)
    ConvexPolygon(vs, validate=True)
    if res.kind == "polygon":
        for p, q in res.polygon.edges():
            assert any(_side(hp, p) == 0 and _side(hp, q) == 0 for hp in cons)


def _dedupe_collinear(pairs):
    # the cleanup intersect_halfplanes once ran after its clips, kept as the
    # reference's own: it drops repeated points and collinear middle points
    cleaned = []
    for p in pairs:
        if not cleaned or cleaned[-1] != p:
            cleaned.append(p)
    if len(cleaned) > 1 and cleaned[0] == cleaned[-1]:
        cleaned.pop()
    changed = True
    while changed and len(cleaned) >= 3:
        changed = False
        m = len(cleaned)
        for i in range(m):
            (ax, at), (bx, bt), (cx, ct) = (
                cleaned[(i - 1) % m], cleaned[i], cleaned[(i + 1) % m])
            # cross(b - a, c - a) / sin(2*pi/n), the value orientation() signs
            cross = (bx - ax) * (ct - at) - (bt - at) * (cx - ax)
            if sign_of_real(cross, _checked=True) == 0:
                cleaned.pop(i)
                changed = True
                break
    return cleaned


def _reference(constraints, skip, half_width=None):
    # the exact reference, with or without the parallel skip, and with the
    # old cleanup
    pairs, w, _ = clipped_pairs(constraints, half_width, skip)
    if not pairs:
        return "empty", None
    pairs = _dedupe_collinear(pairs)
    if len(pairs) < 3:
        return "lower_dimensional", None
    half_eta = obc.geometry._half_eta(w.n)
    poly = ConvexPolygon([x + half_eta * t for x, t in pairs], validate=False)
    boxed = any(v == w or v == -w for p in pairs for v in p)
    return ("unbounded" if boxed else "polygon"), poly.serialize()


def _same_as_every_clip(res, cons, half_width=None):
    # res, here or after the skip of periodic.code_region, is the reference
    # clipping every half-plane, and the skip changes no vertex there either
    got = (res.kind, res.polygon.serialize() if res.polygon else None)
    assert got == _reference(cons, False, half_width) == _reference(cons, True, half_width)


# (source index, antiparallel?, positive scale, offset shift): a parallel copy
# of scale 1 has the identical normal, which code_region's skip reads; shift 0
# gives equal offsets; for an antiparallel copy |shift| is the width of the strip
_copy = st.tuples(st.integers(0, 6), st.booleans(),
                  st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 3), Fraction(7, 2))),
                  st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(3))))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((4, 5, 7, 12)),
       st.lists(st.tuples(_coeff, _coeff, _offset), min_size=1, max_size=7),
       st.lists(_copy, max_size=8),
       st.randoms(use_true_random=False))
def test_parallel_skip_keeps_the_vertex_sequence(n, planes, copies, shuffle):
    cons = []
    for ca, cb, cc in planes:
        a, b, c = (_real(n, x) for x in (ca, cb, cc))
        if not (a.is_zero() and b.is_zero()):
            cons.append(HalfPlane(a, b, c))
    if not cons:
        return
    for i, anti, k, shift in copies:
        hp = cons[i % len(cons)]
        if anti:
            # a*x + b*ytilde + c lies in (0, |shift|) on the strip
            copy = HalfPlane(-hp.a * k, -hp.b * k, (abs(shift) - hp.c) * k)
        else:
            copy = HalfPlane(hp.a * k, hp.b * k, hp.c * k + shift)
        cons.append(copy)
    shuffle.shuffle(cons)
    _same_as_every_clip(intersect_halfplanes(cons), cons)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((4, 5, 7, 12)),
       st.sampled_from((Fraction(1, 2), Fraction(4, 5), Fraction(999, 1000))),
       st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 10))
def test_parallel_skip_on_contracted_code_regions(n, lam, x, y, depth):
    # regions of lam < 1 codes, through code_region's skip: the pull-back
    # factor alpha = (-1/lam)^i is not +-1, so parallel half-planes differ
    # by a rational scale
    P = regular_ngon(n)
    z = from_scaled(n, Fraction(x, 8) + Fraction(1, 97), Fraction(y, 8) + Fraction(1, 89))
    code = iterate(P, lam, z, depth).code
    if code:
        res = code_region(P, lam, code)
        _same_as_every_clip(res, code_constraints(P, lam, code), res.half_width)


def _left_of(p, q):
    # the half-plane strictly left of p -> q, in (x, ytilde) pairs
    (x0, t0), (x1, t1) = p, q
    a, b = t0 - t1, x1 - x0
    return HalfPlane(a, b, -(a * x0 + b * t0))


def _strictly_convex(pairs):
    # every point strictly left of every edge it is not an end of; this
    # also rules out a repeated point, which lies on the edges it ends
    m = len(pairs)
    for i in range(m):
        hp = _left_of(pairs[i], pairs[(i + 1) % m])
        for k in range(2, m):
            x, t = pairs[(i + k) % m]
            if sign_of_real(hp.a * x + hp.b * t + hp.c, _checked=True) != 1:
                return False
    return m >= 3


# one clip: (kind, a, b, c, i, j, flip).  kind 0 is a generic half-plane,
# kind 1 a line through chain point i with normal (a, b), kind 2 the line
# through chain points i and j; the last two meet the chain in a vertex
_chain_clip = st.tuples(st.integers(0, 2), _coeff, _coeff, _offset,
                        st.integers(0, 20), st.integers(0, 20), st.booleans())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((4, 5, 7, 12)), st.booleans(), st.lists(_chain_clip, max_size=6))
def test_clipping_keeps_the_chain_strictly_convex(n, box, clips):
    # intersect_halfplanes runs no cleanup after its clips: an exact clip of
    # a strictly convex chain is strictly convex with no repeated point, or
    # has at most 2 distinct points
    geo = obc.geometry
    if box:
        chain = geo._box(CycloNum.from_rational(n, 5))
    else:
        pairs = [(real_part(v), imag_scaled(v)) for v in regular_ngon(n).vertices]
        chain = [geo._vertex(*p, geo._line(_left_of(p, q)))
                 for p, q in zip(pairs, pairs[1:] + pairs[:1])]
    # a crossing keeps floats until asked: materialize the exact chain
    pairs = [geo._exact(v) for v in chain]
    for kind, ca, cb, cc, i, j, flip in clips:
        a, b = _real(n, ca), _real(n, cb)
        p, q = pairs[i % len(pairs)], pairs[j % len(pairs)]
        if kind == 2 and p != q:
            hp = _left_of(q, p) if flip else _left_of(p, q)
        elif a.is_zero() and b.is_zero():
            continue
        elif kind == 1:
            hp = HalfPlane(a, b, -(a * p[0] + b * p[1]))
        else:
            hp = HalfPlane(a, b, _real(n, cc))
        chain = geo._clip(chain, hp)
        if not chain:
            return
        pairs = [geo._exact(v) for v in chain]
        assert len(set(pairs)) <= 2 or _strictly_convex(pairs)


def test_halfplane_intersection_unbounded():
    one = CycloNum.one(4)
    zero = CycloNum.zero(4)
    res = intersect_halfplanes([HalfPlane(one, zero, zero)])
    assert res.kind == "unbounded"


def test_offsets_past_the_float_range_need_a_given_box():
    # offsets near 2^1100: no float box exists, so the caller must pass one
    # (code_region does, and scr_region's result is the scr_deep pin)
    P, lam = regular_ngon(5), Fraction(1, 2)
    word, _ = iterate(P, lam, from_scaled(5, Fraction(251, 100), Fraction(33, 100)),
                      1100).prefix(1100)
    cons = code_constraints(P, lam, word)
    with pytest.raises(GeometryError, match="half_width"):
        intersect_halfplanes(cons)
    huge = CycloNum.from_rational(4, 2**1030)
    one, zero = CycloNum.one(4), CycloNum.zero(4)
    with pytest.raises(GeometryError, match="half_width"):
        intersect_halfplanes([HalfPlane(one, zero, huge), HalfPlane(-one, zero, huge)])
    res = intersect_halfplanes([HalfPlane(one, zero, huge), HalfPlane(-one, zero, huge)],
                               half_width=1)
    assert res.kind == "unbounded"


def test_halfplane_from_edge_matches_cross():
    for n in (4, 5):
        for _ in range(20):
            p, q, z = rand_pt(n), rand_pt(n), rand_pt(n)
            if p == q:
                continue
            hp = halfplane_left_of(p, q)
            value = hp.a * real_part(z) + hp.b * imag_scaled(z) + hp.c
            assert value == cross_scaled(q - p, z - p)


def test_edge_value_is_the_scaled_cross():
    polygons = [regular_ngon(n) for n in (3, 4, 5, 7, 12)]
    polygons.append(ConvexPolygon([pt4(-1, -1), pt4(1, -1), pt4(1, 1), pt4(-1, 1)]))
    for P in polygons:
        vs = P.vertices
        n = vs[0].n
        phi = len(vs[0].num)
        for _ in range(10):
            z = CycloNum(n, [Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                             for _ in range(phi)])
            sides = list(P.edge_sides(z))
            for i, (hp, _) in enumerate(P.edge_halfplanes()):
                d = vs[(i + 1) % len(vs)] - vs[i]
                value = cross_scaled(d, z - vs[i])
                assert hp.a * real_part(z) + hp.b * imag_scaled(z) + hp.c == value
                assert sides[i] == sign_of_real(value, _checked=True)
        with pytest.raises(ConductorMismatchError):
            P.edge_sides(CycloNum.zeta(n + 1))


# sum |num| / den near 2^k around the cap of CycloNum.float_image, which
# gives up (e = inf) once sum |num| has more than 500 bits beyond den
CAP_BITS = (499, 501, 700, 1002)


def _image_holds(z):
    """Each float of z.float_image() lies within e of the midpoint of z's
    80-bit enclosure, widened by half its width, or e is infinite."""
    fx, fy, e = z.float_image()
    if e == math.inf:
        return True
    return all(abs(Fraction(f) - (lo + hi) / 2) <= Fraction(e) + (hi - lo) / 2
               for f, (lo, hi) in zip((fx, fy), approximate(z, 80)))


@pytest.mark.parametrize("bits", CAP_BITS)
@pytest.mark.parametrize("n", (5, 7, 12))
def test_float_image_at_its_cap(n, bits):
    P = regular_ngon(n)
    R = Fraction(2**bits + 1, 3)
    points = [from_scaled(n, R * x, R * t) for x, t in ((3, 1), (-1, 5), (Fraction(7, 5), -2))]
    # on the singular ray of edge 0, beyond vertex 1, and 2^-60 R off it
    v, w = P.vertices[0], P.vertices[1]
    ray = v + (w - v) * R
    points += [ray, ray + from_scaled(n, R / 2**60, 0)]
    edges = [hp for hp, _ in P.edge_halfplanes()]
    big = [HalfPlane(hp.a, hp.b, hp.c * R) for hp in edges]  # the polygon R P
    cut = HalfPlane(-edges[0].a, -edges[0].b, -big[0].c + R / 2)
    for z in points + [hp.c for hp in big + [cut]]:
        assert _image_holds(z), (n, bits, z.serialize())
        excess = sum(map(abs, z.num)).bit_length() - z.den.bit_length()
        assert (z.float_image()[2] < math.inf) == (excess <= 500)
    for z in points:
        fast, slow = select_vertex(P, z), _select_exhaustive(P, z)
        assert (fast.kind, fast.label, fast.candidates) == (slow.kind, slow.label, slow.candidates)
    for cons in (big, big + [cut]):
        got = intersect_halfplanes(cons)
        ref, _ = exact_intersect(cons, skip=False)
        assert got.kind == ref.kind == "polygon"
        assert got.polygon.serialize() == ref.polygon.serialize()


def test_a_point_of_another_conductor_is_refused():
    P, z = regular_ngon(5), from_scaled(7, 3, 1)  # outside P, where floats would certify
    for refuse in (lambda: select_vertex(P, z), lambda: P.locate(z), lambda: iterate(P, 1, z, 5)):
        with pytest.raises(ConductorMismatchError):
            refuse()


def test_polygon_locate_and_validation():
    sq = ConvexPolygon([pt4(0, 0), pt4(1, 0), pt4(1, 1), pt4(0, 1)])
    assert sq.locate(pt4(Fraction(1, 2), Fraction(1, 2))) == "interior"
    assert sq.locate(pt4(0, Fraction(1, 2))) == "boundary"
    assert sq.locate(pt4(5, 5)) == "exterior"
    with pytest.raises(GeometryError):
        ConvexPolygon([pt4(0, 0), pt4(1, 0), pt4(2, 0)])
    with pytest.raises(GeometryError):
        ConvexPolygon([pt4(0, 0), pt4(0, 1), pt4(1, 1)])  # clockwise


def test_polygon_equality_is_rotation_invariant():
    vs = [pt4(0, 0), pt4(2, 0), pt4(2, 1), pt4(0, 1)]
    a = ConvexPolygon(vs)
    b = ConvexPolygon(vs[2:] + vs[:2])
    assert a == b and hash(a) == hash(b)


def test_is_regular():
    assert regular_ngon(5).is_regular()
    assert regular_ngon(7).is_regular()
    box = ConvexPolygon([pt4(0, 0), pt4(2, 0), pt4(2, 1), pt4(0, 1)])
    assert not box.is_regular()
    sq = ConvexPolygon([pt4(0, 0), pt4(1, 0), pt4(1, 1), pt4(0, 1)])
    assert sq.is_regular()


def test_hausdorff_examples():
    sq = ConvexPolygon([pt4(0, 0), pt4(1, 0), pt4(1, 1), pt4(0, 1)])
    assert hausdorff_distance(sq, sq) == 0.0
    moved = sq.mapped(lambda z: z + pt4(Fraction(1, 10), 0))
    assert abs(hausdorff_distance(sq, moved) - 0.1) < 1e-12
    with pytest.raises(GeometryError):
        hausdorff_distance(sq, None)


def test_polygon_serialization_round_trip():
    P = regular_ngon(5)
    assert ConvexPolygon.parse(P.serialize()) == P
