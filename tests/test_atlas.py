"""Window searches, same-code regions, convergence, atlas persistence."""

import hashlib
from fractions import Fraction

import pytest
from exact_orbits import scr_word_by_steps

import obc.atlas
import obc.periodic
from obc.atlas import (
    Atlas,
    SearchWindow,
    load_atlas,
    picture_convergence,
    save_atlas,
    scr_region,
    search_tiles,
)
from obc.dynamics import Code, iterate
from obc.errors import AtlasFormatError, CodeNotRealizableError, ObcError
from obc.geometry import ConvexPolygon, from_scaled, point_xy, regular_ngon
from obc.periodic import Tile, code_constraints, code_fixed_point, tile_from_code
from obc.square import square_polygon


def test_square_frame_grid_window(square):
    window = SearchWindow(4, (Fraction(-9), Fraction(-1), Fraction(-1), Fraction(1)),
                          Fraction(1, 8), 64)
    atlas = search_tiles(window, polygon=square)
    periods = sorted(t.period for t in atlas.tiles())
    assert periods == [4, 8, 12, 16]
    assert atlas.provenance["singular_skipped"] > 0
    for t in atlas.tiles():
        assert t.symmetric is True
        assert t.stability.verdict == "stable"
        assert t.stability.limit_point == t.polygon.centroid()


def test_search_determinism_and_monotone_refinement():
    bounds = (Fraction(2, 5), Fraction(4), Fraction(2, 5), Fraction(4))
    coarse = search_tiles(SearchWindow(4, bounds, Fraction(1, 4), 60))
    again = search_tiles(SearchWindow(4, bounds, Fraction(1, 4), 60))
    assert coarse.codes() == again.codes()
    fine = search_tiles(SearchWindow(4, bounds, Fraction(1, 8), 60))
    assert coarse.codes() <= fine.codes()


def test_search_results_merge_by_code_union():
    # scanning two half windows and merging by canonical code gives the
    # same atlas as one pass over the full window (order independence)
    res = Fraction(1, 4)
    x0, x1 = Fraction(2, 5), Fraction(4)
    t0, t1 = Fraction(2, 5), Fraction(4)
    split = x0 + 7 * res
    full = search_tiles(SearchWindow(4, (x0, x1, t0, t1), res, 60))
    left = search_tiles(SearchWindow(4, (x0, split, t0, t1), res, 60))
    right = search_tiles(SearchWindow(4, (split + res, x1, t0, t1), res, 60))
    assert left.codes() | right.codes() == full.codes()


def test_pentagon_census(pentagon_atlas):
    periods = {t.period for t in pentagon_atlas.tiles()}
    assert 5 in periods and 20 in periods
    for t in pentagon_atlas.tiles():
        assert t.symmetric is True
        assert t.stability.verdict == "stable"
        assert len(t.polygon.vertices) <= 10
        # symmetric tiles outside a prime n-gon are regular n- or 2n-gons
        assert t.polygon.is_regular()
        assert len(t.polygon.vertices) in (5, 10)
    prov = pentagon_atlas.provenance
    assert (prov["seeds"], prov["singular_skipped"], prov["undecided"]) == (484, 13, 24)


def test_scr_square_frame_examples(square):
    x = from_scaled(4, -2, 0)
    r = scr_region(square, 1, x, 4)
    pts = sorted(point_xy(v) for v in r.polygon.vertices)
    assert pts == [(-3.0, -1.0), (-3.0, 1.0), (-1.0, -1.0), (-1.0, 1.0)]
    assert scr_region(square, 1, x, 8).polygon == r.polygon


def test_scr_nestedness():
    x = from_scaled(4, -2, 0)
    lam = Fraction(9, 10)
    shallow = scr_region(regular_ngon(4), lam, x, 30)
    deep = scr_region(regular_ngon(4), lam, x, 60)
    assert all(shallow.polygon.contains(v) for v in deep.polygon.vertices)
    assert deep.polygon.contains(x)


def test_scr_rejects_bad_seed():
    with pytest.raises(ObcError, match="^point is inside; its code is undefined$"):
        scr_region(regular_ngon(4), 1, from_scaled(4, 0, 0), 4)  # inside the polygon
    with pytest.raises(ObcError, match="^point is singular; its code is undefined$"):
        scr_region(square_polygon(), 1, from_scaled(4, 3, 1), 4)  # singular
    with pytest.raises(ObcError, match="^orbit hits the singular set at step 3$"):
        scr_region(square_polygon(), 1, from_scaled(4, 3, 2), 10)
    for depth in (0, -1):
        with pytest.raises(ValueError, match="^depth must be >= 1$"):
            scr_region(regular_ngon(4), 1, from_scaled(4, 3, 0), depth)


@pytest.mark.parametrize("lam", (Fraction(1), Fraction(1, 2), Fraction(4, 5)), ids=str)
def test_scr_constraints_match_the_step_loop(lam, square):
    # scr_region reads iterate's orbit; the reference takes one exact
    # selection per symbol, and must give the same half-planes and errors
    P5 = regular_ngon(5)
    v, w = P5.vertices[0], P5.vertices[1]
    cases = [(P5, from_scaled(5, Fraction(251, 100), Fraction(33, 100)), 40),
             (P5, from_scaled(5, Fraction(1, 10), Fraction(1, 10)), 5),      # inside
             (P5, v - (w - v) * Fraction(3, 2), 5),                          # singular
             (square, from_scaled(4, 3, 2), 10),           # at lam = 1 singular at step 3
             (square, from_scaled(4, -2, 0), 13),          # at lam = 1 closes at step 4
             (regular_ngon(7), from_scaled(7, Fraction(3, 2), Fraction(5, 4)), 60)]
    if lam < 1:  # q_W closes at step 4
        cases.append((square, code_fixed_point(square, (3, 4, 1, 2), lam), 13))
    for P, x, depth in cases:
        try:
            word = scr_word_by_steps(P, lam, x, depth)
        except ObcError as exc:
            with pytest.raises(ObcError) as err:
                scr_region(P, lam, x, depth)
            assert str(err.value) == str(exc)
            continue
        labels, _ = iterate(P, lam, x, depth).prefix(depth)
        assert code_constraints(P, lam, labels) == code_constraints(P, lam, word)


def test_scr_rejects_rate_outside_unit_interval():
    with pytest.raises(ValueError):
        scr_region(regular_ngon(4), 2, from_scaled(4, 3, 0), 4)


def test_scr_at_rate_one_is_the_tile(septagon_atlas):
    # tiles and same-code regions are one pull-back construction
    P = regular_ngon(7)
    short = [t for t in septagon_atlas.tiles() if len(t.code.doubled_even()) <= 42]
    assert len(short) == 4
    for t in short:
        word = t.code.doubled_even()
        rec = iterate(P, 1, t.center(), len(word))
        assert code_constraints(P, 1, rec.prefix(len(word))[0]) == code_constraints(P, 1, word)
        # past the step where the centre's orbit closes, read on around it
        labels, _ = rec.prefix(3 * len(word))
        assert code_constraints(P, 1, labels) == code_constraints(P, 1, word * 3)
        assert scr_region(P, 1, t.center(), len(word)).polygon == t.polygon


def test_picture_convergence_square_frame(square):
    x = from_scaled(4, -2, 0)
    rows = picture_convergence(square, x, [Fraction(9, 10), 1], 60)
    assert rows[1][1] == 0.0
    assert rows[0][1] > 0


def test_picture_convergence_monotone_on_lambda_grid(square):
    x = from_scaled(4, -2, 0)
    lams = [Fraction(9, 10), Fraction(19, 20), Fraction(99, 100),
            Fraction(199, 200), Fraction(999, 1000)]
    rows = picture_convergence(square, x, lams, 120)
    ds = [d for _, d in rows]
    assert all(a > b for a, b in zip(ds, ds[1:])), ds


def test_atlas_round_trip(tmp_path):
    atlas = search_tiles(SearchWindow(4, (Fraction(2, 5), Fraction(4), Fraction(2, 5), Fraction(4)),
                                      Fraction(1, 4), 60))
    path = tmp_path / "n4.atlas"
    save_atlas(atlas, path)
    loaded = load_atlas(path)
    assert loaded.codes() == atlas.codes()
    assert loaded.provenance["diagnostics"] == []
    path2 = tmp_path / "n4b.atlas"
    save_atlas(loaded, path2)
    assert path.read_text() == path2.read_text()


def test_atlas_rejects_corruption(tmp_path):
    atlas = search_tiles(SearchWindow(4, (Fraction(2, 5), Fraction(3), Fraction(2, 5), Fraction(3)),
                                      Fraction(1, 4), 40))
    path = tmp_path / "n4.atlas"
    save_atlas(atlas, path)
    lines = path.read_text().splitlines()
    import re

    frag = re.search(r"-?\d+/\d+", lines[1]).group(0)
    # a wrong vertex, and one over a zero denominator: a line diagnostic each
    zero = frag.split("/")[0] + "/0"
    for bad, reason in (("12345/7", "line 2"), (zero, "line 2: rejected (zero denominator")):
        path.write_text("\n".join([lines[0], lines[1].replace(frag, bad, 1)] + lines[2:]) + "\n")
        loaded = load_atlas(path)
        assert len(loaded.entries) == len(atlas.entries) - 1
        assert any(d.startswith(reason) for d in loaded.provenance["diagnostics"]), bad


def test_atlas_header_required(tmp_path):
    path = tmp_path / "bad.atlas"
    path.write_text("not an atlas\n")
    with pytest.raises(AtlasFormatError):
        load_atlas(path)
    for n in ("2", "200", "abc"):
        path.write_text(f"obc-atlas v1 n={n}\n")
        with pytest.raises(AtlasFormatError, match="line 1: bad conductor"):
            load_atlas(path)


def test_failed_save_keeps_existing_atlas(tmp_path, monkeypatch):
    atlas = search_tiles(SearchWindow(4, (Fraction(2, 5), Fraction(4), Fraction(2, 5), Fraction(4)),
                                      Fraction(1, 2), 60))
    path = tmp_path / "n4.atlas"
    save_atlas(atlas, path)
    before = path.read_bytes()

    class Interrupted(Exception):
        pass

    class HalfWriter:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[: len(text) // 2])
            raise Interrupted

    real_open = open
    monkeypatch.setattr(obc.atlas, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(Interrupted):
        save_atlas(Atlas(regular_ngon(4)), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["n4.atlas"]


def test_non_canonical_frame_not_persistable(tmp_path, square):
    atlas = search_tiles(
        SearchWindow(4, (Fraction(-3), Fraction(-1), Fraction(-1), Fraction(1)),
                     Fraction(1, 4), 16),
        polygon=square,
    )
    with pytest.raises(ObcError):
        save_atlas(atlas, tmp_path / "x.atlas")


def test_explicit_regular_polygon_persists(tmp_path):
    # the README census, searched outside an explicitly passed regular_ngon(5)
    bounds = (Fraction(3, 10), Fraction(33, 10), Fraction(3, 10), Fraction(33, 10))
    window = SearchWindow(5, bounds, Fraction(1, 7), 120)
    path = tmp_path / "pentagon.atlas"
    save_atlas(search_tiles(window, polygon=regular_ngon(5)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "50a820762a0e2a00ee07390c17021419da8ff418cc2610a0b8c370d540e5eea3")


def test_relabelled_polygon_not_persistable(tmp_path):
    # equal as a polygon (== ignores rotation), but label 1 is another vertex
    vs = regular_ngon(5).vertices
    relabelled = ConvexPolygon(vs[1:] + vs[:1])
    assert relabelled == regular_ngon(5)
    path = tmp_path / "x.atlas"
    with pytest.raises(ObcError):
        save_atlas(Atlas(relabelled), path)
    assert not path.exists()


def test_unanalysed_tile_not_persistable(tmp_path):
    atlas = Atlas(regular_ngon(4))
    t = tile_from_code(regular_ngon(4), [1, 2, 3, 4])
    atlas.add(Tile(t.polygon, t.code))
    path = tmp_path / "x.atlas"
    with pytest.raises(ObcError):
        save_atlas(atlas, path)
    assert not path.exists()


def test_each_tile_built_once(tmp_path, monkeypatch):
    builds = []

    def counting(P, code):
        builds.append(code)
        return tile_from_code(P, code)

    monkeypatch.setattr(obc.periodic, "tile_from_code", counting)
    monkeypatch.setattr(obc.atlas, "tile_from_code", counting)
    window = SearchWindow(4, (Fraction(2, 5), Fraction(4), Fraction(2, 5), Fraction(4)),
                          Fraction(1, 2), 60)
    atlas = search_tiles(window)
    assert len(atlas.entries) == 4
    assert len(builds) == 4
    path = tmp_path / "n4.atlas"
    save_atlas(atlas, path)
    builds.clear()
    loaded = load_atlas(path)
    assert loaded.provenance["diagnostics"] == []
    assert len(builds) == len(loaded.entries) == 4
    builds.clear()
    P = regular_ngon(4)
    tile = counting(P, [1, 2, 4, 1, 3, 4, 2, 3])
    assert tile.stability.verdict == "stable"
    assert len(builds) == 1


def test_census_builds_an_exact_seed_only_where_the_float_orbit_abstains(monkeypatch):
    built = []

    def counting(n, x, ytilde):
        built.append((x, ytilde))
        return from_scaled(n, x, ytilde)

    monkeypatch.setattr(obc.atlas, "from_scaled", counting)
    window = SearchWindow(5, (Fraction(3, 10), Fraction(33, 10), Fraction(3, 10),
                              Fraction(33, 10)), Fraction(1, 7), 120)
    prov = search_tiles(window).provenance
    assert (prov["seeds"], prov["singular_skipped"], prov["undecided"]) == (484, 13, 24)
    assert len(built) == 13


def test_search_runs_no_centre_orbit(pentagon_atlas, monkeypatch):
    # tile_from_code certifies each code from its alternating vertex sum,
    # so the census finds its 8 codes without following any code exactly
    def fail(*args):
        raise AssertionError("code_endpoint called")

    monkeypatch.setattr(obc.periodic, "code_endpoint", fail)
    window = SearchWindow(5, (Fraction(3, 10), Fraction(33, 10), Fraction(3, 10),
                              Fraction(33, 10)), Fraction(1, 7), 120)
    atlas = search_tiles(window)
    assert len(atlas.entries) == 8
    assert atlas.codes() == pentagon_atlas.codes()


def test_septagon_fixture(septagon_atlas):
    assert septagon_atlas.n == 7
    tiles = septagon_atlas.tiles()
    assert len(tiles) == 8
    exotic = [t for t in tiles if not t.symmetric]
    assert len(exotic) == 1
    assert exotic[0].stability.verdict == "unstable"
    for t in tiles:
        assert len(t.polygon.vertices) <= 14
        if t.symmetric:
            # prime n: symmetric tiles are regular 7- or 14-gons
            assert t.polygon.is_regular()
            assert len(t.polygon.vertices) in (7, 14)
            assert t.stability.verdict == "stable"


def _exact_reference(window, P):
    # the exact lambda=1 orbit of every grid seed: the realizable canonical
    # codes of the seeds that come back, and the number of seeds in the
    # closed polygon or on the singular set
    codes, singular = set(), 0
    xs, ts = window.grid()
    for tx in ts:
        for x in xs:
            rec = iterate(P, 1, from_scaled(window.n, x, tx), window.max_period)
            if rec.termination in ("inside", "hit_singular"):
                singular += 1
            elif rec.termination == "exact_repeat":
                code = Code(rec.cycle_code()).canonical_code()
                try:
                    tile_from_code(P, code)
                except CodeNotRealizableError:
                    continue
                codes.add(code.word)
    return codes, singular


@pytest.mark.parametrize("n, bounds, res, max_period, frame, singular", [
    (4, (Fraction(2, 5), Fraction(3), Fraction(2, 5), Fraction(3)), Fraction(1, 4), 60,
     False, 15),
    (5, (Fraction(3, 10), Fraction(33, 10), Fraction(3, 10), Fraction(33, 10)), Fraction(2, 7),
     120, False, 5),
    (4, (Fraction(-9), Fraction(-1), Fraction(-1), Fraction(1)), Fraction(1, 4), 64,
     True, 101),
], ids=["n4", "n5", "square_frame"])
def test_search_agrees_with_exact_orbit_of_every_seed(n, bounds, res, max_period, frame,
                                                       singular):
    # the float screen proposes, the exact orbit decides only the seeds the
    # screen cannot: the atlas holds exactly the codes the exact orbit
    # of every seed finds, and counts exactly its singular seeds
    P = square_polygon() if frame else regular_ngon(n)
    window = SearchWindow(n, bounds, res, max_period)
    atlas = search_tiles(window, polygon=P if frame else None)
    codes, ref_singular = _exact_reference(window, P)
    assert atlas.codes() == codes
    assert atlas.provenance["singular_skipped"] == ref_singular == singular
