"""Crossings kept as floats until asked, and location on the clip lines.

``geometry._clip`` keeps each crossing as floats with a proved bound
(``_meet_float``) and builds its exact coordinates only when a side test
abstains on it or it survives the last clip.  ``ConvexPolygon.locate``
reads the side of a point on each edge's clip line with the same float
filter, and an exact sign only where it abstains.  Checked here:

* every float meet lies within its bound of a certified enclosure
  (``approximate``) of the exact meet, on the tiles of the census, the
  septagon fixture, the square frame and the n = 7, 8, 10, 12 windows, and
  on random half-plane sets;
* the septagon fixture's tiles build an exact meet only for their vertices;
* ``locate`` agrees with the exact edge-form signs
  (``exact_halfplanes.locate_by_edge_forms``) at each tile's limit point,
  at its vertices and edge midpoints ("boundary") and at points 2^-k off an
  edge midpoint, inwards and outwards, both on the clip lines of the tile
  and on the edge half-planes of the same vertices.
"""

from fractions import Fraction

import pytest
from exact_halfplanes import locate_by_edge_forms
from hypothesis import given, settings
from hypothesis import strategies as st

import obc.geometry
from obc.field import CycloNum, approximate
from obc.geometry import ConvexPolygon, HalfPlane, _meet, intersect_halfplanes
from obc.periodic import code_region


def _recording_meets(run):
    """run() with every ``_meet_float`` call recorded: (its result, the
    records (l1, l2, floats))."""
    meet_float = obc.geometry._meet_float
    seen = []

    def recording(l1, l2):
        f = meet_float(l1, l2)
        seen.append((l1, l2, f))
        return f

    obc.geometry._meet_float = recording
    try:
        return run(), seen
    finally:
        obc.geometry._meet_float = meet_float


def _check_meets(seen):
    """Each float meet is within its bound of the exact meet; returns how
    many had floats."""
    checked = 0
    for l1, l2, f in seen:
        if f is None:
            continue
        fx, ft, r, e = f
        assert r == max(abs(fx), abs(ft))
        for v, c in zip((fx, ft), _meet(l1[0], l2[0])):
            (lo, hi), _ = approximate(c, 80)
            assert Fraction(v) - Fraction(e) <= lo and hi <= Fraction(v) + Fraction(e), (
                c.serialize(), v, e)
        checked += 1
    return checked


@pytest.fixture(scope="module")
def tile_atlases(pentagon_atlas, septagon_atlas, n4_square_frame_atlas, window_atlases):
    return [pentagon_atlas, septagon_atlas, n4_square_frame_atlas, *window_atlases.values()]


def test_float_meets_of_tiles_lie_within_their_bounds(tile_atlases):
    checked = 0
    for atlas in tile_atlases:
        for t in atlas.tiles():
            res, seen = _recording_meets(
                lambda: code_region(atlas.polygon, 1, t.code.doubled_even()))
            assert res.polygon == t.polygon
            checked += _check_meets(seen)
    assert checked > 3000


def test_septagon_tiles_build_exact_meets_only_for_their_vertices(septagon_atlas, monkeypatch):
    built = []
    meet = obc.geometry._meet

    def counting(l1, l2):
        built.append((l1, l2))
        return meet(l1, l2)

    monkeypatch.setattr(obc.geometry, "_meet", counting)
    for t in septagon_atlas.tiles():
        built.clear()
        res = code_region(septagon_atlas.polygon, 1, t.code.doubled_even())
        assert res.polygon == t.polygon
        assert len(built) == len(t.polygon.vertices), t.period


# a real element (p + q (zeta + conj zeta)) / d * 2^k
_elem = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 3))


def _real(n, elem, k):
    p, q, d = elem
    two_cos = CycloNum.zeta(n) + CycloNum.zeta(n, n - 1)
    return (CycloNum.from_rational(n, p) + two_cos * q) * (Fraction(2) ** k / d)


# a half-plane: a, b scaled by 2^ka, c by 2^kc; "hair" adds 2^-40 to a of
# the line before it, a nearly parallel pair with a tiny determinant
_plane = st.tuples(_elem, _elem, _elem, st.integers(-20, 20), st.integers(-40, 40),
                   st.booleans())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((4, 5, 7, 12)), st.lists(_plane, min_size=1, max_size=8),
       st.sampled_from((None, Fraction(3), Fraction(10**6))))
def test_float_meets_of_random_halfplanes_lie_within_their_bounds(n, planes, half_width):
    cons = []
    for ea, eb, ec, ka, kc, hair in planes:
        if hair and cons:
            a, b = cons[-1].a + Fraction(1, 2**40), cons[-1].b
        else:
            a, b = _real(n, ea, ka), _real(n, eb, ka)
        if a.is_zero() and b.is_zero():
            continue
        cons.append(HalfPlane(a, b, _real(n, ec, kc)))
    if cons:
        _check_meets(_recording_meets(lambda: intersect_halfplanes(cons, half_width))[1])


def _probes(tile, K):
    """(point, where it lies) in the tile's polygon K: the limit point, each
    vertex and edge midpoint, and points 2^-k of the way from an edge
    midpoint towards the centroid and away from it."""
    vs = K.vertices
    c = K.centroid()
    out = [(tile.stability.limit_point, tile.stability.membership)]
    for p, q in zip(vs, vs[1:] + vs[:1]):
        m = (p + q) * Fraction(1, 2)
        out += [(p, "boundary"), (m, "boundary")]
        for k in (8, 30, 60):
            step = (c - m) * Fraction(1, 2**k)
            out += [(m + step, "interior"), (m - step, "exterior")]
    return out


def test_locate_on_clip_lines_matches_edge_forms(tile_atlases):
    seen = set()
    for atlas in tile_atlases:
        for t in atlas.tiles():
            # the tile as the clipper returns it, with its clip lines
            K = code_region(atlas.polygon, 1, t.code.doubled_even()).polygon
            assert K == t.polygon and K._lines is not None
            plain = ConvexPolygon(K.vertices, validate=False)
            for z, where in _probes(t, K):
                want = locate_by_edge_forms(K, z)
                assert want == where, (t.code, z.serialize())
                assert K.locate(z) == want, (t.code, z.serialize())
                assert plain.locate(z) == want, (t.code, z.serialize())
                seen.add(want)
    assert seen == {"interior", "boundary", "exterior"}
