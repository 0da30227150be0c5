"""The filtered half-plane intersection against the exact reference.

``obc.geometry.intersect_halfplanes`` decides each side from floats under a
proved bound and computes each crossing as the meet of two lines; the
reference in ``exact_halfplanes`` signs everything exactly and crosses edges
at p + s*(q - p).  Both must give the same kind, the same vertex sequence
(by ``serialize()``) and the same clips, one per half-plane given, here on
half-plane sets built from each polygon's cached edge normals, with offsets
that make the floats hard: exact ties, offsets 2^-60 apart or an irrational
hair apart, three lines through one point, a line in both orientations.
The reference's skip of implied parallel half-planes, which
``periodic.code_region`` runs before the clipper, must leave the kind and
the vertex sequence as they are.
"""

from fractions import Fraction

import pytest
from exact_halfplanes import intersect_halfplanes as exact_intersect
from hypothesis import given, settings
from hypothesis import strategies as st

import obc.geometry
from obc.field import CycloNum, approximate
from obc.geometry import HalfPlane, imag_scaled, intersect_halfplanes, real_part, regular_ngon
from obc.square import square_polygon

POLYGONS = {"4": regular_ngon(4), "5": regular_ngon(5), "7": regular_ngon(7),
            "12": regular_ngon(12), "square": square_polygon()}
TINY = Fraction(1, 2**60)

# how the constraints are handed over: any iterable, made afresh per call
FEEDS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda cons: (hp for hp in cons),
    "iterator": iter,
    "dict": dict.fromkeys,
}


def _library(constraints, half_width):
    """intersect_halfplanes with its _clip calls counted."""
    clip = obc.geometry._clip
    count = 0

    def counting(chain, hp):
        nonlocal count
        count += 1
        return clip(chain, hp)

    obc.geometry._clip = counting
    try:
        res = intersect_halfplanes(constraints, half_width)
    finally:
        obc.geometry._clip = clip
    return res, count


def _same_as_exact(cons, feed="list", half_width=None):
    got, clips = _library(FEEDS[feed](cons), half_width)
    ref, ref_clips = exact_intersect(FEEDS[feed](cons), half_width, skip=False)
    skipped, _ = exact_intersect(FEEDS[feed](cons), half_width)
    for res in (ref, skipped):
        assert got.kind == res.kind
        assert (got.polygon and got.polygon.serialize()) == (res.polygon and res.polygon.serialize())
    assert clips == ref_clips
    return got.kind


def _normals(P):
    # the 2n cached edge half-planes; entry 2e + 1 is the reversal of 2e
    return [hp for pair in P.edge_halfplanes() for hp in pair]


def _through(hp, point):
    x, t = point
    return HalfPlane(hp.a, hp.b, -(hp.a * x + hp.b * t))


def _reversed(hp, shift=0):
    # the other side of hp's line, moved by -shift: with shift > 0 the two
    # half-planes share no point, with shift = 0 they share the line
    return HalfPlane(-hp.a, -hp.b, -hp.c - shift)


def _hair(P):
    """M*(zeta + 1/zeta) - p for the best p/M with M <= 2^40: below 10^-11 in
    size, but with coefficients near 2^40, so its float errs by far more
    than its size (0 for the square frame, where zeta + 1/zeta = 0)."""
    n = P.vertices[0].n
    gamma = CycloNum.zeta(n) + CycloNum.zeta(n, n - 1)
    (lo, hi), _ = approximate(gamma, 120)
    q = ((lo + hi) / 2).limit_denominator(2**40)
    return gamma * q.denominator - q.numerator


def _vertex_xy(P, j):
    v = P.vertices[j % len(P.vertices)]
    return real_part(v), imag_scaled(v)


CASES = {
    # the polygon itself: left of every edge
    "polygon": lambda P: [pair[0] for pair in P.edge_halfplanes()],
    # one more line through a vertex, with the normal of an edge across
    "three_through_a_vertex": lambda P: (
        [pair[0] for pair in P.edge_halfplanes()]
        + [_through(P.edge_halfplanes()[len(P) // 2][1], _vertex_xy(P, 0))]),
    "duplicates_and_ties": lambda P: (
        [pair[0] for pair in P.edge_halfplanes()] * 2
        + [HalfPlane(hp.a, hp.b, hp.c * 1) for hp, _ in P.edge_halfplanes()]),
    "offsets_2^-60_apart": lambda P: [
        HalfPlane(hp.a, hp.b, hp.c + s) for hp, _ in P.edge_halfplanes()
        for s in (TINY, 0, -TINY, 0, TINY)],
    # parallel offsets whose floats may order them wrongly
    "offsets_a_hair_apart": lambda P: [
        HalfPlane(hp.a, hp.b, hp.c + _hair(P) * s) for hp, _ in P.edge_halfplanes()
        for s in (1, -1, 2, 0, -2, 1)],
    "unbounded": lambda P: [P.edge_halfplanes()[0][0]],
    "both_orientations": lambda P: (
        [P.edge_halfplanes()[0][0], _reversed(P.edge_halfplanes()[0][0])]
        + [pair[0] for pair in P.edge_halfplanes()[1:]]),
    "empty": lambda P: [P.edge_halfplanes()[1][0], _reversed(P.edge_halfplanes()[1][0], TINY)],
}
KINDS = {"polygon": "polygon", "three_through_a_vertex": "polygon",
         "duplicates_and_ties": "polygon", "offsets_2^-60_apart": "polygon",
         "offsets_a_hair_apart": "polygon",
         "unbounded": "unbounded", "both_orientations": "lower_dimensional", "empty": "empty"}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", sorted(POLYGONS))
def test_every_outcome_matches_the_exact_clip(name, case):
    assert _same_as_exact(CASES[case](POLYGONS[name])) == KINDS[case]


@pytest.mark.parametrize("feed", sorted(FEEDS))
def test_any_iterable_is_read_once_for_both_passes(feed):
    # the box reads every offset before the clips read them again
    for P in POLYGONS.values():
        assert _same_as_exact(CASES["duplicates_and_ties"](P), feed) == "polygon"


def test_the_edge_halfplanes_clip_the_box_down_to_the_polygon():
    # a known answer besides the oracle's: P itself, from whichever vertex
    # the clips leave first (ConvexPolygon equality is up to rotation)
    for P in POLYGONS.values():
        res = intersect_halfplanes(CASES["polygon"](P))
        assert res.polygon == P


_scale = st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2)))
_shift = st.integers(-8, 8).map(lambda k: Fraction(k, 4))
_kinds = st.sampled_from(("offset", "offset", "tie", "nudge", "through", "through", "both", "strip"))


def _outward(hp):
    # hp's offset made positive: the half-plane then holds the origin
    return hp.c if hp.c.to_complex().real > 0 else -hp.c


@st.composite
def _halfplane_sets(draw):
    # a scaled copy k*P of the polygon (all of its edges, or all but a few),
    # then cuts: lines through its vertices, exact and 2^-60 ties, strips
    P = POLYGONS[draw(st.sampled_from(sorted(POLYGONS)))]
    normals = _normals(P)
    k = draw(st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2))))
    edges = [hp for hp, _ in P.edge_halfplanes()]
    drop = draw(st.sets(st.integers(0, len(edges) - 1), max_size=3))
    cons = [HalfPlane(hp.a, hp.b, hp.c * k) for i, hp in enumerate(edges) if i not in drop]
    anchors = [(x * k, t * k) for j in range(len(P)) for x, t in [_vertex_xy(P, j)]]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(_kinds)
        hp = draw(st.sampled_from(normals))
        if kind == "offset" or not cons and kind in ("tie", "nudge"):
            cons.append(HalfPlane(hp.a, hp.b, _outward(hp) * draw(_scale) + draw(_shift)))
        elif kind == "tie":
            old = draw(st.sampled_from(cons))
            cons.append(HalfPlane(old.a, old.b, old.c + 0))
        elif kind == "nudge":
            old = draw(st.sampled_from(cons))
            nudge = draw(st.sampled_from((TINY, -TINY, _hair(P), -_hair(P))))
            cons.append(HalfPlane(old.a, old.b, old.c + nudge))
        elif kind == "through":
            # up to three lines through one vertex of k*P
            point = draw(st.sampled_from(anchors))
            for other in draw(st.lists(st.sampled_from(normals), min_size=1, max_size=3)):
                cons.append(_through(other, point))
        elif kind == "both":
            cons += [hp, _reversed(hp)]
        else:
            gap = draw(st.sampled_from((TINY, -TINY, Fraction(1), Fraction(-1, 3))))
            cons += [hp, _reversed(hp, gap)]
    if not cons:
        cons.append(draw(st.sampled_from(normals)))
    order = draw(st.permutations(range(len(cons))))
    return [cons[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(_halfplane_sets(), st.sampled_from(sorted(FEEDS)),
       st.sampled_from((None, Fraction(3), Fraction(5, 2))))
def test_filtered_clip_matches_the_exact_clip(cons, feed, half_width):
    _same_as_exact(cons, feed, half_width)
