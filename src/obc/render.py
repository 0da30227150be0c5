"""Deterministic SVG emission for atlases and orbits.

Each picture draws the polygon it belongs to: an atlas its own
``Atlas.polygon``, an orbit the polygon passed first, as to ``iterate``.
Vertex placement comes from certified interval enclosures at the requested
precision; colors are keyed by a stable hash of the canonical code, so the
same orbit is drawn the same color in every run and every file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .geometry import point_xy
from .periodic import iterate_tiles

_SCALE = 64.0  # pixels per unit
_STROKE_WIDTH = 0.6
_POLYGON_FILL = "#d0d0d8"


@dataclass(frozen=True)
class RenderSpec:
    viewport: tuple = (-8.0, 8.0, -8.0, 8.0)  # (x0, x1, y0, y1)
    precision_bits: int = 53

    def size(self):
        x0, x1, y0, y1 = self.viewport
        return (x1 - x0) * _SCALE, (y1 - y0) * _SCALE

    def to_px(self, x, y):
        x0, _, _, y1 = self.viewport
        return (x - x0) * _SCALE, (y1 - y) * _SCALE


def code_color(code_word):
    """Stable color for a canonical code (same code, same color, always)."""
    digest = hashlib.sha256(",".join(str(a) for a in code_word).encode()).digest()
    hue = digest[0] * 360.0 / 256.0
    # fixed saturation/lightness; small deterministic lightness jitter
    light = 0.42 + (digest[1] / 256.0) * 0.25
    return _hsl_hex(hue, 0.65, light)


def _hsl_hex(h, s, l):
    c = (1 - abs(2 * l - 1)) * s
    hp = h / 60.0
    x = c * (1 - abs(hp % 2 - 1))
    r, g, b = {0: (c, x, 0), 1: (x, c, 0), 2: (0, c, x),
               3: (0, x, c), 4: (x, 0, c), 5: (c, 0, x)}[int(hp) % 6]
    m = l - c / 2
    return "#%02x%02x%02x" % tuple(round((v + m) * 255) for v in (r, g, b))


def _clip_viewport(pts, viewport):
    x0, x1, y0, y1 = viewport
    edges = (
        lambda p: p[0] - x0,
        lambda p: x1 - p[0],
        lambda p: p[1] - y0,
        lambda p: y1 - p[1],
    )
    for f in edges:
        out = []
        m = len(pts)
        if m == 0:
            return []
        for i in range(m):
            cur, nxt = pts[i], pts[(i + 1) % m]
            fc, fn = f(cur), f(nxt)
            if fc >= 0:
                out.append(cur)
            if (fc > 0 > fn) or (fc < 0 < fn):
                t = fc / (fc - fn)
                out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
        pts = out
    return pts


def _poly_element(pts, spec, fill):
    coords = " ".join("%.6f,%.6f" % spec.to_px(x, y) for x, y in pts)
    return (
        f'<polygon points="{coords}" fill="{fill}" '
        f'stroke="#222222" stroke-width="{_STROKE_WIDTH}"/>'
    )


def _write_svg(P, spec, body, path):
    """Write the document: white background, the polygon P, then body."""
    ppts = _clip_viewport([point_xy(v, spec.precision_bits) for v in P.vertices], spec.viewport)
    if ppts:
        body = [_poly_element(ppts, spec, _POLYGON_FILL)] + body
    wpx, hpx = spec.size()
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{wpx:.0f}" '
        f'height="{hpx:.0f}" viewBox="0 0 {wpx:.6f} {hpx:.6f}">\n'
        f'<rect width="100%" height="100%" fill="#ffffff"/>\n'
    )
    with open(path, "w", encoding="utf-8") as f:
        f.write(head + "\n".join(body) + "\n</svg>\n")
    return path


def render_atlas_svg(atlas, spec, path):
    """Draw ``atlas.polygon`` and every tile orbit in the atlas, each tile
    once, color per code."""
    bits = spec.precision_bits
    body = []
    for key in sorted(atlas.entries):
        color = code_color(key)
        for poly in iterate_tiles(atlas.polygon, atlas.entries[key]):
            pts = _clip_viewport([point_xy(v, bits) for v in poly.vertices], spec.viewport)
            if len(pts) >= 3:
                body.append(_poly_element(pts, spec, color))
    return _write_svg(atlas.polygon, spec, body, path)


def render_orbit_svg(P, record, spec, path):
    """Draw the polygon P, the orbit polyline and its points."""
    bits = spec.precision_bits
    body = []
    pts = [point_xy(z, bits) for z in record.points]
    px = [spec.to_px(x, y) for x, y in pts]
    if len(px) >= 2:
        coords = " ".join("%.6f,%.6f" % p for p in px)
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="#3050c8" '
            f'stroke-width="{_STROKE_WIDTH}"/>'
        )
    for x, y in px:
        body.append(f'<circle cx="%.6f" cy="%.6f" r="2.2" fill="#c03030"/>' % (x, y))
    return _write_svg(P, spec, body, path)
