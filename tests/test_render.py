"""SVG emission: well-formedness, determinism, viewport clipping."""

import re
import xml.etree.ElementTree as ET
from fractions import Fraction

from obc.atlas import Atlas, SearchWindow, search_tiles
from obc.dynamics import iterate
from obc.geometry import from_scaled, point_xy, regular_ngon
from obc.periodic import iterate_tiles
from obc.render import RenderSpec, code_color, render_atlas_svg, render_orbit_svg
from obc.square import square_polygon


def _atlas():
    return search_tiles(SearchWindow(4, (Fraction(2, 5), Fraction(3), Fraction(2, 5), Fraction(3)),
                                     Fraction(1, 4), 40))


def test_render_atlas_svg(tmp_path):
    atlas = _atlas()
    spec = RenderSpec(viewport=(-6.0, 6.0, -6.0, 6.0))
    out = tmp_path / "atlas.svg"
    render_atlas_svg(atlas, spec, out)
    tree = ET.parse(out)
    polys = [e for e in tree.iter() if e.tag.endswith("polygon")]
    assert len(polys) > len(atlas.entries)  # polygon itself plus orbit copies
    w, h = spec.size()
    for e in polys:
        for pair in e.attrib["points"].split():
            x, y = (float(v) for v in pair.split(","))
            assert -1e-6 <= x <= w + 1e-6
            assert -1e-6 <= y <= h + 1e-6


def test_render_deterministic_bytes(tmp_path):
    atlas = _atlas()
    spec = RenderSpec(viewport=(-6.0, 6.0, -6.0, 6.0))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_atlas_svg(atlas, spec, a)
    render_atlas_svg(atlas, spec, b)
    assert a.read_bytes() == b.read_bytes()


def test_render_empty_atlas_draws_polygon_only(tmp_path):
    spec = RenderSpec(viewport=(-2.0, 2.0, -2.0, 2.0))
    out = tmp_path / "empty.svg"
    render_atlas_svg(Atlas(regular_ngon(5)), spec, out)
    tree = ET.parse(out)
    polys = [e for e in tree.iter() if e.tag.endswith("polygon")]
    assert len(polys) == 1


def _polygon_points(path):
    return [e.attrib["points"] for e in ET.parse(path).iter() if e.tag.endswith("polygon")]


def test_render_atlas_draws_each_tile_once(tmp_path, septagon_atlas):
    # iterate_tiles ends on the tile itself: one polygon per orbit point
    out = tmp_path / "septagon.svg"
    render_atlas_svg(septagon_atlas, RenderSpec(), out)
    periods = sum(t.period for t in septagon_atlas.tiles())
    assert len(_polygon_points(out)) == 1 + periods == 1047


def test_render_atlas_draws_its_own_polygon(tmp_path, n4_square_frame_atlas, square):
    # the square frame's tiles around the square (+-1, +-1), not around
    # regular_ngon(4), whose vertices would also move every iterate
    spec = RenderSpec(viewport=(-14.0, 14.0, -14.0, 14.0))  # clips nothing here
    out = tmp_path / "square.svg"
    render_atlas_svg(n4_square_frame_atlas, spec, out)

    def points(poly):
        return " ".join("%.6f,%.6f" % spec.to_px(*point_xy(v, 53)) for v in poly.vertices)

    drawn = _polygon_points(out)
    assert drawn[0] == points(square) == " ".join(
        "%.6f,%.6f" % spec.to_px(x, y) for x, y in ((1, 1), (-1, 1), (-1, -1), (1, -1)))
    expected = [points(q) for t in n4_square_frame_atlas.tiles()
                for q in iterate_tiles(square, t)]
    assert drawn[1:] == expected


def test_render_orbit(tmp_path):
    rec = iterate(square_polygon(), Fraction(1, 2), from_scaled(4, 3, 0), 12)
    spec = RenderSpec(viewport=(-4.0, 4.0, -4.0, 4.0))
    out = tmp_path / "orbit.svg"
    render_orbit_svg(square_polygon(), rec, spec, out)
    text = out.read_text()
    assert "polyline" in text and "circle" in text
    ET.parse(out)


def test_code_color_stability():
    c1 = code_color((1, 2, 3, 4))
    assert c1 == code_color((1, 2, 3, 4))
    assert re.fullmatch(r"#[0-9a-f]{6}", c1)
    assert c1 != code_color((1, 2, 3, 4, 1, 2, 3, 4, 5, 5))
