"""Fixed points, unfolding, tiles, symmetry, the stability criterion."""

import random
from fractions import Fraction

import pytest
from exact_closed_forms import unfold
from exact_orbits import endpoint_by_wedges

import obc.geometry
from obc.dynamics import Code, iterate, orbit_bound, seed_code
from obc.errors import (
    CodeNotRealizableError,
    IndeterminateFixedPointError,
    StabilityPreconditionError,
)
from obc.atlas import SearchWindow, search_tiles
from obc.field import CycloNum
from obc.geometry import (
    ConvexPolygon,
    from_scaled,
    halfplane_left_of,
    intersect_halfplanes,
    norm_sq,
    point_xy,
    regular_ngon,
)
from obc.periodic import (
    Captures,
    Tile,
    alternating_vertex_sum,
    captured_word,
    code_constraints,
    code_endpoint,
    code_fixed_point,
    compose_code_map,
    follows_code,
    is_lambda_stable,
    is_symmetric,
    iterate_tiles,
    stability_limit,
    tile_from_code,
    validate_periodic,
)
from obc.square import sk_code, square_polygon

rng = random.Random(4096)

SQ = square_polygon()
C1 = Code([3, 4, 1, 2])  # orbit code of (-2, 0) in the square frame


def pt4(x, y):
    return from_scaled(4, Fraction(x), Fraction(y))


def pentagon_codes(atlas):
    """(period-20 pentagon congruent to P, period-5 decagon congruent to P)."""
    P5 = regular_ngon(5)
    side = norm_sq(P5.vertices[1] - P5.vertices[0])
    pent = [t for t in atlas.tiles()
            if t.period == 20 and len(t.polygon.vertices) == 5
            and t.polygon.side_lengths_sq()[0] == side]
    deca = [t for t in atlas.tiles()
            if t.period == 5 and len(t.polygon.vertices) == 10]
    assert pent and deca
    return pent[0], deca[0]


def test_code_fixed_point_square_example():
    q = code_fixed_point(SQ, C1, Fraction(1, 2))
    assert q == pt4(Fraction(-9, 5), Fraction(3, 5))
    assert compose_code_map(SQ, C1, Fraction(1, 2), q) == q
    # plain label lists are accepted wherever a Code is
    assert compose_code_map(SQ, [3, 4, 1, 2], Fraction(1, 2), q) == q


def test_fixed_point_property_random_codes():
    for n in (4, 5, 7):
        P = regular_ngon(n)
        for _ in range(25):
            word = [rng.randint(1, n) for _ in range(rng.randint(1, 8))]
            lam = Fraction(rng.randint(1, 19), 20)
            q = code_fixed_point(P, Code(word), lam)
            assert compose_code_map(P, Code(word), lam, q) == q


def test_code_fixed_point_indeterminate_at_one():
    with pytest.raises(IndeterminateFixedPointError):
        code_fixed_point(SQ, C1, 1)
    # odd length is fine at lam = 1
    q = code_fixed_point(SQ, Code([1]), 1)
    assert q == SQ.vertices[0]


def test_validate_periodic_examples():
    assert validate_periodic(SQ, C1, Fraction(1, 2)) is True
    C2 = sk_code(2)
    assert validate_periodic(SQ, C2, Fraction(1, 2)) is False   # below threshold
    assert validate_periodic(SQ, C2, Fraction(4, 5)) is True    # above threshold
    # fixed point on the closed polygon: domain exclusion
    assert validate_periodic(SQ, Code([1]), Fraction(1, 2)) is False
    assert validate_periodic(SQ, Code([1, 3]), Fraction(1, 2)) is False
    # lam = 1 semantics via the tile
    assert validate_periodic(SQ, C1, 1) is True
    assert validate_periodic(SQ, Code([1, 1]), 1) is False


def test_follows_code_needs_labels_and_return():
    lam = Fraction(1, 2)
    q = code_fixed_point(SQ, C1, lam)
    assert follows_code(SQ, lam, q, C1) is True
    assert follows_code(SQ, lam, q, C1.shifted(1)) is False      # wrong first label
    assert follows_code(SQ, lam, q, [3, 4, 1, 2, 3]) is False    # labels match, no return
    assert follows_code(SQ, 1, tile_from_code(SQ, C1).center(), C1) is True
    assert follows_code(SQ, lam, pt4(3, 1), C1) is False         # singular start


def test_code_endpoint_agrees_with_step_loop():
    # reference: the exact wedge test per label, no vertex selection
    for P in (SQ, regular_ngon(4), regular_ngon(5), regular_ngon(7)):
        vs = P.vertices
        m = len(vs)
        n = vs[0].n
        pts = [from_scaled(n, Fraction(rng.randint(-48, 48), 16),
                           Fraction(rng.randint(-48, 48), 16)) for _ in range(30)]
        # inside P, on its vertices, and on the singular rays extending its sides
        pts += [P.centroid(), vs[0] * Fraction(1, 3)]
        pts += [v + (v - vs[(i + 1) % m]) * Fraction(rng.randint(0, 9), 4)
                for i, v in enumerate(vs)]
        pts += [v + (v - vs[i - 1]) * Fraction(rng.randint(1, 9), 4)
                for i, v in enumerate(vs)]
        for z in pts:
            for lam in (Fraction(1), Fraction(1, 2), Fraction(4, 5)):
                rec = iterate(P, lam, z, 12)
                words = [[rng.randint(1, m + 1) for _ in range(rng.randint(1, 6))]]
                if rec.code:
                    words.append(rec.code)
                    bad = list(rec.code)
                    j = rng.randrange(len(bad))
                    bad[j] = bad[j] % (m + 1) + 1  # another label, sometimes m + 1
                    words.append(bad)
                for w in words:
                    assert code_endpoint(P, lam, z, w) == endpoint_by_wedges(P, lam, z, w), (z, w)


# words real at lam < 1: (polygon, lam, one period of the cycle's code)
_REAL_WORDS = [
    (SQ, Fraction(1, 2), (1, 2, 3, 4)),
    (SQ, Fraction(4, 5), (2, 3, 4, 1)),
    (regular_ngon(5), Fraction(1, 2), (3, 4, 5, 1, 2)),
    (regular_ngon(5), Fraction(4, 5), (2, 4, 1, 3, 5)),
    (regular_ngon(7), Fraction(1, 2), (2, 3, 4, 5, 6, 7, 1)),
    (regular_ngon(7), Fraction(4, 5), (4, 6, 1, 3, 5, 7, 2)),
]


def _periodic_starts():
    """(P, lam, z, W): z a periodic point whose orbit follows W, a lam = 1
    tile centre or q_W at lam < 1.  The orbit of z closes exactly after
    len(W) steps or sooner (an odd tile word's centre, q_W of a doubled
    odd word), so iterate stops early and its record is read on."""
    P5 = regular_ngon(5)
    for P, code in ((SQ, C1), (P5, Code([1, 3, 5, 2, 4])),
                    (P5, seed_code(P5, from_scaled(5, Fraction(1, 2), Fraction(21, 10)), 64))):
        yield P, Fraction(1), tile_from_code(P, code).center(), code.doubled_even()
    for P, lam, word in _REAL_WORDS:
        W = Code(word).doubled_even()
        yield P, lam, code_fixed_point(P, W, lam), W


def test_code_endpoint_reads_on_around_a_closed_orbit():
    # words two and three periods long from periodic points, a last label
    # changed, and the label m + 1: all against the exact wedge oracle
    for P, lam, z, W in _periodic_starts():
        m = len(P.vertices)
        rec = iterate(P, lam, z, len(W))
        assert rec.termination == "exact_repeat" and rec.preperiod == 0, (W, lam)
        assert follows_code(P, lam, z, W)
        for reps in (2, 3):
            word = W * reps
            assert endpoint_by_wedges(P, lam, z, word) == z
            assert code_endpoint(P, lam, z, word) == z, (W, lam, reps)
            for j in (len(word) - 1, len(word) // 2 + 1):
                for other in (word[j] % m + 1, m + 1):
                    bad = word[:j] + (other,) + word[j + 1:]
                    assert endpoint_by_wedges(P, lam, z, bad) is None
                    assert code_endpoint(P, lam, z, bad) is None, (W, lam, j, other)
        # every prefix ends where the oracle does, on the cycle
        for k in range(1, 2 * len(W) + 2):
            word = (W * 3)[:k]
            end = code_endpoint(P, lam, z, word)
            assert end is not None and end == endpoint_by_wedges(P, lam, z, word), (W, lam, k)


def test_unfold_closure_and_step_vectors():
    ch = unfold(SQ, C1)
    assert ch.closes()
    assert len(ch.points) == 5
    total = ch.step_vectors[0]
    for w in ch.step_vectors[1:]:
        total = total + w
    assert total.is_zero()
    for i, w in enumerate(ch.step_vectors):
        assert ch.points[i + 1] == ch.points[i] + w * 2
    # w_i = (-1)^i v_i when the base is the center
    for i, a in enumerate(C1.word):
        v = SQ.vertices[a - 1]
        assert ch.step_vectors[i] == (v if i % 2 == 0 else -v)
    # closure is base independent
    assert unfold(SQ, C1, base=pt4(1, 1)).closes()
    assert unfold(SQ, C1, base=pt4(Fraction(1, 3), Fraction(-2, 7))).closes()


def test_unfold_pentagon_closure(pentagon_atlas):
    P5 = regular_ngon(5)
    pent, deca = pentagon_codes(pentagon_atlas)
    for t in (pent, deca):
        ch = unfold(P5, Code(t.code.doubled_even()))
        assert ch.closes()


def test_tile_from_code_square_example():
    t = tile_from_code(SQ, C1)
    assert t.period == 4
    pts = sorted(point_xy(v) for v in t.polygon.vertices)
    assert pts == [(-3.0, -1.0), (-3.0, 1.0), (-1.0, -1.0), (-1.0, 1.0)]
    assert t.polygon.centroid() == pt4(-2, 0)
    # every interior sample reproduces the code
    for _ in range(5):
        z = pt4(Fraction(rng.randint(-29, -11), 10), Fraction(rng.randint(-9, 9), 10))
        rec = iterate(SQ, 1, z, 8)
        assert rec.termination == "exact_repeat"
        assert Code(rec.cycle_code()).canonical() == C1.canonical()


def test_tile_from_code_not_realizable():
    with pytest.raises(CodeNotRealizableError):
        tile_from_code(SQ, Code([1, 1]))


@pytest.mark.parametrize("n, word", [(5, (1, 2)), (7, (1, 2)), (4, (1, 2, 4, 1))])
def test_tile_from_code_refuses_non_periodic_codes(n, word):
    # the code carves a polygon, but its alternating vertex sum is nonzero:
    # the orbit of the polygon's centroid takes the code and drifts away
    P = regular_ngon(n)
    res = intersect_halfplanes(code_constraints(P, 1, word))
    assert res.kind == "polygon"
    assert not follows_code(P, 1, res.polygon.centroid(), Code(word))
    with pytest.raises(CodeNotRealizableError, match="not periodic"):
        tile_from_code(P, Code(word))


def test_tile_certificate_agrees_with_centre_orbit(pentagon_atlas, n12_atlas,
                                                   septagon_atlas):
    # reference: the exact orbit of each certified tile's centre follows the
    # code back to itself
    for P, atlas in ((regular_ngon(5), pentagon_atlas), (regular_ngon(12), n12_atlas),
                     (regular_ngon(7), septagon_atlas)):
        for t in atlas.tiles():
            assert follows_code(P, 1, t.center(), t.code.canonical_code()), t.code


def _constraints_from_mapped_wedges(P, lam, word):
    # reference: map the three points of each wedge through G_i and build
    # each half-plane from the mapped points
    lam = Fraction(lam)
    vs = P.vertices
    m = len(vs)
    cons = []
    alpha = Fraction(1)
    beta = CycloNum.zero(vs[0].n)
    for a in word:
        v = vs[a - 1]
        apex = v * alpha + beta
        cons.append(halfplane_left_of(apex, vs[a % m] * alpha + beta))
        cons.append(halfplane_left_of(apex, vs[(a - 2) % m] * alpha + beta))
        beta = beta + v * (alpha * (1 + lam) / lam)
        alpha = -alpha / lam
    return cons


def test_code_constraints_match_mapped_wedges():
    polygons = [regular_ngon(n) for n in (3, 4, 5, 6, 7, 8, 10, 12)] + [SQ]
    for P in polygons:
        m = len(P.vertices)
        for lam in (Fraction(1), Fraction(1, 2), Fraction(4, 5), Fraction(999, 1000)):
            for _ in range(4):
                word = [rng.randint(1, m) for _ in range(rng.randint(1, 30))]
                got = [(h.a, h.b, h.c) for h in code_constraints(P, lam, word)]
                want = []
                for j, h in enumerate(_constraints_from_mapped_wedges(P, lam, word)):
                    # the reference carries step i's factor |alpha_i| = lam^-i
                    s = lam ** (j // 2)
                    want.append((h.a * s, h.b * s, h.c * s))
                assert got == want, (m, lam, word)


def test_code_constraints_reject_rates_outside_the_unit_interval():
    # lam = 0 once divided by zero, and lam = 3/2 returned the half-planes
    # of an expanding map
    for lam in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match="0 < lam <= 1"):
            code_constraints(regular_ngon(5), lam, (1, 3))


def test_tile_constraints_against_rasterization():
    # brute-force oracle: membership in the constraint region coincides
    # with sharing the code prefix, over a rational sample grid
    t = tile_from_code(SQ, C1)
    for i in range(-32, 0):
        for j in range(-12, 13):
            z = pt4(Fraction(i, 10) + Fraction(1, 64), Fraction(j, 10) + Fraction(1, 64))
            rec = iterate(SQ, 1, z, 4)
            same = (rec.termination != "hit_singular" and len(rec.code) >= 4
                    and tuple(rec.code[:4]) == C1.word)
            inside = t.polygon.locate(z) == "interior"
            assert same == inside, point_xy(z)


def test_pentagon_necklace_tiles(pentagon_atlas):
    P5 = regular_ngon(5)
    pent, deca = pentagon_codes(pentagon_atlas)
    side = norm_sq(P5.vertices[1] - P5.vertices[0])
    assert pent.polygon.is_regular() and len(pent.polygon.vertices) == 5
    assert pent.polygon.side_lengths_sq()[0] == side  # congruent to P
    assert deca.polygon.is_regular() and len(deca.polygon.vertices) == 10


def test_stability_limit_square_family():
    from obc.field import CycloNum

    for k in (1, 2, 3, 4):
        lim = stability_limit(SQ, sk_code(k))
        assert lim == pt4(-2 * k, 0)
        t = tile_from_code(SQ, sk_code(k))
        assert lim == t.polygon.centroid()
        # the limit is an exact field element by construction
        assert isinstance(lim, CycloNum) and lim.n == 4


def test_stability_limit_precondition():
    with pytest.raises(StabilityPreconditionError):
        stability_limit(SQ, Code([1, 2, 1, 3]))
    assert not alternating_vertex_sum(SQ, (1, 2, 1, 3)).is_zero()
    # the weights of label 9 cancel, but it is still no label of the square
    for word in ((9, 9), (9, 9, 1, 1)):
        with pytest.raises(ValueError, match="label out of range"):
            stability_limit(SQ, word)


def test_stability_limit_shift_covariance():
    # rotating the code by one symbol moves the limit to the next tile of
    # the orbit; within one chain the anchored averages all agree
    lim = stability_limit(SQ, C1)
    shifted = stability_limit(SQ, C1.shifted(1))
    v = SQ.vertices[C1.word[0] - 1]
    assert shifted == v * 2 - lim
    ch = unfold(SQ, C1)
    k = len(C1.word)
    anchored = []
    for j in range(k):
        acc = ch.points[j]
        for i in range(k):
            acc = acc + ch.step_vectors[(i + j) % k] * Fraction(2 * (k - 1 - i), k)
        anchored.append(acc)
    assert all(a == anchored[0] for a in anchored)
    assert anchored[0] == lim


def test_is_lambda_stable_square_and_shift_invariant_verdict():
    for k in (1, 2, 3):
        code = sk_code(k)
        rep = is_lambda_stable(SQ, code)
        assert rep.verdict == "stable" and rep.membership == "interior"
        assert rep.limit_point == unfold(SQ, Code(code.doubled_even())).barycenter()
        for j in range(1, len(code.word), 3):
            assert is_lambda_stable(SQ, code.shifted(j)).verdict == "stable"


def test_is_lambda_stable_base_independence():
    # the verdict locates the closed-form limit point, which is the
    # barycenter of the unfolded chain from every base
    code = sk_code(2)
    rep = is_lambda_stable(SQ, code)
    assert rep.limit_point == stability_limit(SQ, code)
    for _ in range(5):
        base = pt4(Fraction(rng.randint(-9, 9), 10), Fraction(rng.randint(-9, 9), 10))
        assert unfold(SQ, Code(code.doubled_even()), base).barycenter() == rep.limit_point


def test_pentagon_tiles_stable(pentagon_atlas):
    P5 = regular_ngon(5)
    pent, deca = pentagon_codes(pentagon_atlas)
    for t in (pent, deca):
        rep = is_lambda_stable(P5, t.code)
        assert rep.verdict == "stable"
        assert rep.limit_point == t.polygon.centroid()


def test_is_symmetric_square_and_pentagon(pentagon_atlas):
    t = tile_from_code(SQ, C1)
    assert is_symmetric(SQ, t) is True
    P5 = regular_ngon(5)
    pent, deca = pentagon_codes(pentagon_atlas)
    assert is_symmetric(P5, pent) is True
    assert is_symmetric(P5, deca) is True


def test_septagon_exotic_tile(septagon_atlas):
    P7 = regular_ngon(7)
    exotic = [t for t in septagon_atlas.tiles() if not t.symmetric]
    assert len(exotic) == 1
    t = exotic[0]
    assert len(t.polygon.vertices) == 5
    assert t.period == 276
    assert is_symmetric(P7, t) is False
    rep = is_lambda_stable(P7, t.code)
    assert rep.verdict == "unstable" and rep.membership == "exterior"
    # the unfolding chain closes exactly (276 is already even)
    ch = unfold(P7, Code(t.code.doubled_even()))
    assert ch.closes()
    assert len(ch.points) == 276 + 1


def test_septagon_exotic_tile_clips_only_what_can_cut_it(septagon_atlas, monkeypatch):
    # its 552 pulled-back half-planes, 266 distinct, are all parallel to the
    # septagon's edges; a half-plane implied by an already clipped parallel
    # one is skipped, which leaves 43 clips
    t = next(t for t in septagon_atlas.tiles() if t.period == 276)
    clips = []
    clip = obc.geometry._clip

    def counting(pairs, hp):
        clips.append(hp)
        return clip(pairs, hp)

    monkeypatch.setattr(obc.geometry, "_clip", counting)
    assert tile_from_code(regular_ngon(7), t.code).polygon == t.polygon
    assert len(clips) <= 64


# the first period-252 tile of the n=12 window atlas ([3/10, 4]^2, grid 1/12,
# period <= 300): the longest code of that census
N12_PERIOD_252 = Code([int(a) for a in """
    1 2 3 5 8 11 3 7 11 3 8 12 5 9 2 7 11 4 9 2 6 11 4 9 1 6 11 3 8 12 5
    9 1 6 10 2 7 11 4 8 1 6 10 3 8 1 5 10 3 8 12 5 10 2 7 11 4 8 12 4 8
    11 2 4 5 6 8 11 2 6 10 2 6 11 3 8 12 5 10 2 7 12 5 9 2 7 12 4 9 2 6
    11 3 8 12 4 9 1 5 10 2 7 11 4 9 1 6 11 4 8 1 6 11 3 8 1 5 10 2 7 11
    3 7 11 2 5 7 8 9 11 2 5 9 1 5 9 2 6 11 3 8 1 5 10 3 8 12 5 10 3 7 12
    5 9 2 6 11 3 7 12 4 8 1 5 10 2 7 12 4 9 2 7 11 4 9 2 6 11 4 8 1 5 10
    2 6 10 2 5 8 10 11 12 2 5 8 12 4 8 12 5 9 2 6 11 4 8 1 6 11 3 8 1 6
    10 3 8 12 5 9 2 6 10 3 7 11 4 8 1 5 10 3 7 12 5 10 2 7 12 5 9 2 7 11
    4 8 1 5 9 1 5 8 11
""".split()])


def test_n12_antiparallel_halfplanes_share_a_normal(monkeypatch):
    # its 504 pulled-back half-planes are parallel to the 12-gon's edges;
    # edges e and e+6 are antiparallel, so the forward half-plane of one has
    # exactly the normal of the other's reversal and the parallel skip
    # treats them as one direction: 29 clips, 53 if it did not
    clips = []
    clip = obc.geometry._clip

    def counting(pairs, hp):
        clips.append(hp)
        return clip(pairs, hp)

    monkeypatch.setattr(obc.geometry, "_clip", counting)
    assert N12_PERIOD_252.period == 252
    tile = tile_from_code(regular_ngon(12), N12_PERIOD_252)
    assert len(tile.polygon.vertices) == 8
    assert len(clips) <= 32


def _symmetric_by_rotation(P, tile):
    """Reference for is_symmetric: some rotation of the tile polygon by
    2*pi*j/n about the center of P is one of the tile's map-iterates."""
    n = len(P.vertices)
    orbit = {poly.canonical_key() for poly in iterate_tiles(P, tile)}
    for j in range(1, n):
        zj = CycloNum.zeta(n, j)
        rotated = ConvexPolygon([v * zj for v in tile.polygon.vertices], validate=False)
        if rotated.canonical_key() in orbit:
            return True
    return False


@pytest.fixture(scope="module")
def n12_atlas():
    window = SearchWindow(n=12, bounds=(Fraction(3, 10), 3, Fraction(3, 10), 3),
                          grid_resolution=Fraction(1, 6), max_period=120)
    return search_tiles(window)


@pytest.fixture(scope="module")
def tile_phases(pentagon_atlas, septagon_atlas, n4_square_frame_atlas, n12_atlas):
    """(P, tile) for the first three phases of every tile orbit in the
    census, the septagon fixture, the square-frame atlas and the n=12
    window; phase i is the i-th map-iterate, with the code shifted by i."""
    cases = []
    for P, atlas in ((regular_ngon(5), pentagon_atlas), (regular_ngon(7), septagon_atlas),
                     (SQ, n4_square_frame_atlas), (regular_ngon(12), n12_atlas)):
        for t in atlas.tiles():
            cases.append((P, t))
            for i, poly in enumerate(iterate_tiles(P, t)[:2], start=1):
                cases.append((P, Tile(poly, t.code.shifted(i))))
    return cases


def test_is_symmetric_agrees_with_rotated_iterates(tile_phases, n12_atlas, septagon_atlas):
    for P, t in tile_phases:
        assert is_symmetric(P, t) is _symmetric_by_rotation(P, t), t.code
    assert len(n12_atlas.entries) == 25
    assert sum(not t.symmetric for t in n12_atlas.tiles()) == 5
    assert sum(not t.symmetric for t in septagon_atlas.tiles()) == 1


def test_unstable_n12_centres_are_captured_by_stable_cycles(n12_atlas):
    # near lam = 1 the float orbit from the centre of each non-symmetric,
    # unstable period-24 tile enters a certified capture region of a stable
    # period-4 tile's cycle; only that float prefix is unproved
    P = regular_ngon(12)
    stable4 = {t.code.canonical() for t in n12_atlas.tiles()
               if t.period == 4 and t.stability.verdict == "stable"}
    centres = [t.center() for t in n12_atlas.tiles()
               if t.period == 24 and not t.symmetric and t.stability.verdict == "unstable"]
    assert len(centres) == 2
    captures = Captures(P, Fraction(999, 1000))
    for c in centres:
        word = captured_word(captures, *point_xy(c), 4000)
        assert word is not None and len(word) == 4 and word in stable4, word


# (n, lam): (attractors, undecided) of 300 float orbits, seed 0, each run
# for up to 20 000 steps from a point drawn uniformly from the trapping disc
# of radius orbit_bound(P, lam) outside radius 1.2
SAMPLED_COUNTS = {
    # a known sampling miss: the certified box census of this rate finds 3
    # cycles (periods 5, 5 and 10)
    (5, Fraction(4, 5)): (2, 0),
    (8, Fraction(19, 20)): (7, 0),
    (8, Fraction(49, 50)): (11, 0),
    (12, Fraction(19, 20)): (15, 0),
}


@pytest.mark.parametrize("n, lam", SAMPLED_COUNTS, ids=str)
def test_sampled_attractor_counts_of_regular_polygons(n, lam):
    P = regular_ngon(n)
    captures = Captures(P, lam)
    radius = orbit_bound(P, lam)
    rnd = random.Random(0)
    found, undecided = set(), 0
    for _ in range(300):
        while True:
            x, y = rnd.uniform(-radius, radius), rnd.uniform(-radius, radius)
            if 1.44 < x * x + y * y <= radius * radius:
                break
        word = captured_word(captures, x, y, 20_000)
        if word is None:
            undecided += 1
        else:
            found.add(word)
    assert (len(found), undecided) == SAMPLED_COUNTS[n, lam]


def test_chain_barycenter_is_the_limit_point(tile_phases):
    r = random.Random(276)
    for P, t in tile_phases:
        lim = stability_limit(P, t.code)
        word = Code(t.code.doubled_even())
        bases = [None] + [from_scaled(P.vertices[0].n, Fraction(r.randint(-40, 40), 8),
                                      Fraction(r.randint(-40, 40), 8)) for _ in range(3)]
        for base in bases:
            assert unfold(P, word, base).barycenter() == lim, (t.code, base)
        if t.stability is not None:
            assert t.stability.limit_point == lim


def test_iterate_tiles_returns_to_start():
    t = tile_from_code(SQ, C1)
    polys = iterate_tiles(SQ, t)
    assert len(polys) == 4
    assert polys[-1] == t.polygon


def test_limit_approximates_fixed_point_near_one():
    lam = 1 - Fraction(1, 10**8)
    for k in (1, 2, 3):
        code = sk_code(k)
        q = code_fixed_point(SQ, code, lam)
        lim = stability_limit(SQ, code)
        qx, qy = point_xy(q)
        lx, ly = point_xy(lim)
        assert abs(qx - lx) < 1e-5 and abs(qy - ly) < 1e-5


def test_side_count_bound(pentagon_atlas):
    for t in pentagon_atlas.tiles():
        assert len(t.polygon.vertices) <= 10
