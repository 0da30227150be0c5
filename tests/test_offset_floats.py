"""Offsets of pulled-back wedge half-planes read from floats.

``periodic._clipped`` forms each offset of ``code_constraints`` as a float
with a proved bound, from integers and floats the polygon caches, and
builds an exact offset only where its skip of implied parallel half-planes
needs one.  Checked here against exact references, on the census codes,
the septagon fixture (period 276 among them), the n = 7 window at
N = 3 000 (periods up to 2 702), random words at three rates, words
repeated three times, whose repeats tie exactly, and a word long enough
that its integers pass the float range:

* every float lies within its bound of the exact offset, by a certified
  enclosure (``approximate``), not by another float;
* the half-planes handed to the clipper are, in order, those an exact skip
  clips on the whole ``code_constraints`` list;
* the half-width is ``_auto_half_width`` of that list;
* a word repeated three times, whose repeats are identical half-planes,
  clips as often as the word once and gives the same polygon.

``is_symmetric``'s substring search is checked against its earlier form,
the canonical code of every label shift, on the codes of the same windows.
"""

import math
import random
from fractions import Fraction

import pytest

import obc.geometry
import obc.periodic
from obc.atlas import SearchWindow, search_tiles
from obc.dynamics import Code
from obc.field import approximate, sign_of_real
from obc.geometry import _auto_half_width, regular_ngon
from obc.periodic import (
    Tile,
    _clipped,
    _offset_floats,
    code_constraints,
    code_region,
    is_symmetric,
)
from obc.square import square_polygon

WINDOW = (Fraction(3, 10), Fraction(4), Fraction(3, 10), Fraction(4))


def _window(n, max_period):
    return search_tiles(SearchWindow(n=n, bounds=WINDOW, grid_resolution=Fraction(1, 12),
                                     max_period=max_period))


@pytest.fixture(scope="module")
def n7_3000_atlas():
    return _window(7, 3000)


def _exact_skip(cons):
    # the skip with every comparison exact: per normal, the strict prefix
    # minima of the offsets, in order
    least, out = {}, []
    for hp in cons:
        key = (hp.a, hp.b)
        c0 = least.get(key)
        if c0 is None or sign_of_real(hp.c - c0, _checked=True) < 0:
            least[key] = hp.c
            out.append(hp)
    return out


def _check(P, lam, word):
    """The three checks; returns how many bounds are infinite."""
    lam = Fraction(lam)
    cons = code_constraints(P, lam, word)
    floats = list(_offset_floats(P, lam, word, {}))
    assert len(floats) == len(cons)
    base = P.edge_halfplanes()
    finite = 0
    for (e, forward, f, err, exact), hp in zip(floats, cons):
        normal = base[e][0 if forward else 1]
        assert (normal.a, normal.b) == (hp.a, hp.b)
        assert exact() == hp.c
        if err < math.inf:
            finite += 1
            (lo, hi), _ = approximate(hp.c, 80)
            assert Fraction(f) - Fraction(err) <= lo and hi <= Fraction(f) + Fraction(err), (
                word, hp.c.serialize(), f, err)
    hps, width = _clipped(P, lam, word)
    assert hps == _exact_skip(cons)
    assert width() == _auto_half_width(cons)
    return len(cons) - finite


def test_tile_codes(pentagon_atlas, septagon_atlas, n4_square_frame_atlas):
    # the square frame's rational offsets put 4 W on an integer, where the
    # float maxima cannot decide int(4 W) and the exact ones must
    for atlas in (pentagon_atlas, septagon_atlas, n4_square_frame_atlas):
        for t in atlas.tiles():
            word = t.code.doubled_even()
            assert _check(atlas.polygon, 1, word) == 0
            assert _check(atlas.polygon, 1, word * 3) == 0
    assert any(t.period == 276 for t in septagon_atlas.tiles())


def test_identical_halfplanes_clip_once_on_the_code_region_path(
        pentagon_atlas, septagon_atlas, monkeypatch):
    clips = []
    clip = obc.geometry._clip

    def counting(chain, hp):
        clips.append(hp)
        return clip(chain, hp)

    monkeypatch.setattr(obc.geometry, "_clip", counting)
    for atlas in (pentagon_atlas, septagon_atlas):
        for t in atlas.tiles():
            word = t.code.doubled_even()
            once = code_region(atlas.polygon, 1, word)
            count = len(clips)
            thrice = code_region(atlas.polygon, 1, word * 3)
            assert len(clips) == 2 * count, t.code
            assert thrice.polygon.serialize() == once.polygon.serialize()
            clips.clear()


def test_long_tile_codes(n7_3000_atlas):
    periods = [t.period for t in n7_3000_atlas.tiles()]
    assert max(periods) == 2702 and len(periods) == 30
    for t in n7_3000_atlas.tiles():
        assert _check(n7_3000_atlas.polygon, 1, t.code.doubled_even()) == 0


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(1, 2), Fraction(4, 5)])
def test_random_words(lam):
    rng = random.Random(26)
    for P in [regular_ngon(n) for n in (3, 4, 5, 7, 8, 12)] + [square_polygon()]:
        m = len(P.vertices)
        for _ in range(6):
            word = [rng.randint(1, m) for _ in range(rng.randint(1, 30))]
            assert _check(P, lam, word) == 0
            assert _check(P, lam, word * 3) == 0


def test_words_past_the_float_range():
    # at lam = 4/5 the denominator L 4^i passes 2^960 after about 480 labels
    # and s = L (-5)^i the float range after about 441: from there every
    # bound is infinite and the skip decides exactly
    rng = random.Random(4)
    P = regular_ngon(5)
    word = [rng.randint(1, 5) for _ in range(520)]
    assert 0 < _check(P, Fraction(4, 5), word) < 200


def test_exact_offsets_are_built_once_and_only_where_the_skip_needs_them(
        septagon_atlas, monkeypatch):
    # the period-276 tile: of 552 half-planes, 43 clip and 54 more tie
    # exactly with the tightest clipped one of their normal; its half-width
    # is decided from the floats alone
    P = septagon_atlas.polygon
    (t,) = [t for t in septagon_atlas.tiles() if t.period == 276]
    word = t.code.doubled_even()
    want = _auto_half_width(code_constraints(P, 1, word))
    builds = []
    edge_offset = obc.periodic._edge_offset

    def counting(n, form, s, B, Q, forward):
        builds.append((form, s, tuple(B), Q, forward))
        return edge_offset(n, form, s, B, Q, forward)

    monkeypatch.setattr(obc.periodic, "_edge_offset", counting)
    hps, width = _clipped(P, 1, word)
    assert (2 * len(word), len(hps)) == (552, 43)
    assert width() == want
    assert len(builds) == len(set(builds)) == 97


def _symmetric_by_canonical_codes(n, code):
    # is_symmetric's earlier form: some label shift has the code's
    # canonical code
    canon = code.canonical()
    return any(Code([(a - 1 + j) % n + 1 for a in code.word]).canonical() == canon
               for j in range(1, n))


def test_is_symmetric_matches_canonical_codes(pentagon_atlas, septagon_atlas, n7_3000_atlas,
                                              window_atlases):
    atlases = [pentagon_atlas, septagon_atlas, n7_3000_atlas, *window_atlases.values()]
    verdicts = set()
    for atlas in atlases:
        n = len(atlas.polygon.vertices)
        for t in atlas.tiles():
            want = _symmetric_by_canonical_codes(n, t.code)
            assert t.symmetric is want, t.code
            for j in (0, 1, len(t.code) // 2):
                shifted = t.code.shifted(j)
                assert is_symmetric(atlas.polygon, Tile(None, shifted)) is want
            verdicts.add(want)
    assert verdicts == {True, False}
