"""Tile discovery over spatial windows, same-code regions, and
convergence-of-picture measurements.

Search seeds a rational grid (in (x, ytilde) coordinates, which are exact
field points for every n).  A float orbit of the uncontracted map proposes
each seed's code; the exact orbit decides only the seeds whose float orbit
comes too close to a wedge boundary.  Each newly seen code is certified
where its tile is built (``tile_from_code``).
An atlas keys tiles by canonical code, so one entry stands for a whole
orbit of tiles, and carries the polygon those codes label; results are
independent of traversal order.  Same-code regions take the polygon first.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

from .dynamics import Code, float_select, iterate, seed_code
from .errors import AtlasFormatError, CodeNotRealizableError, ObcError
from .field import CycloNum, check_conductor, context
from .geometry import (
    ConvexPolygon,
    from_scaled,
    hausdorff_distance,
    regular_ngon,
)
from .periodic import code_region, tile_from_code


@dataclass(frozen=True)
class SearchWindow:
    """Rational search rectangle in (x, ytilde) coordinates."""

    n: int
    bounds: tuple  # (x0, x1, t0, t1) Fractions
    grid_resolution: Fraction
    max_period: int
    # accepted for old callers; selects nothing, every search runs one pipeline
    mode: str = "exact"

    def grid(self):
        x0, x1, t0, t1 = (Fraction(b) for b in self.bounds)
        res = Fraction(self.grid_resolution)
        if res <= 0:
            raise ValueError("grid_resolution must be positive")
        xs = []
        v = x0
        while v <= x1:
            xs.append(v)
            v += res
        ts = []
        v = t0
        while v <= t1:
            ts.append(v)
            v += res
        return xs, ts


@dataclass
class Atlas:
    """Tiles outside ``polygon`` keyed by canonical code, with search
    provenance.  Codes label the polygon's vertices in order; ``n`` is the
    conductor of those vertices.
    """

    polygon: ConvexPolygon
    entries: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.polygon.vertices[0].n

    def add(self, tile):
        key = tile.code.canonical()
        if key not in self.entries:
            self.entries[key] = tile
            return True
        return False

    def codes(self):
        return set(self.entries)

    def tiles(self):
        return [self.entries[k] for k in sorted(self.entries)]


def _float_periodic_code(orders, x, y, max_period):
    """Float orbit of the uncontracted map from (x, y): its code once it is
    back at (x, y); [] if it is not back within max_period steps; None if
    it comes within the screen margin of a wedge boundary.  After label a
    the screen walks ``orders[a]`` (``ConvexPolygon.float_wedges``)."""
    x0, y0 = x, y
    code = []
    lbl = 0  # orders[0] is the label order: no label taken yet
    for _ in range(max_period):
        row = float_select(orders[lbl], x, y)
        if row is None:
            return None
        lbl, vx, vy = row[0], row[1], row[2]
        x, y = 2 * vx - x, 2 * vy - y
        code.append(lbl)
        if abs(x - x0) < 1e-9 and abs(y - y0) < 1e-9:
            return code
    return []


def search_tiles(window, polygon=None):
    """Scan the window grid for periodic tiles of the uncontracted map.

    Every seed runs its float orbit from (float(x), float(ytilde) * s), s
    the float of sin(2 pi/n) (``Cyclotomic.float_sine``), which proposes
    the seed's code; only where it meets the screen margin is the exact
    seed built and its exact orbit decides, counting seeds in the closed
    polygon or whose orbit meets the singular set as ``singular_skipped``.
    A code is looked up by a substring search over the atlas codes; one
    not yet in the atlas is certified exactly where its tile is built
    (``tile_from_code``).  Seeds left without a certified code count as
    ``undecided``.
    ``polygon`` replaces ``regular_ngon(window.n)`` (e.g. by the axis-aligned
    square frame); the atlas keeps the polygon it was searched outside.
    """
    n = window.n
    P = polygon if polygon is not None else regular_ngon(n)
    orders = P.float_wedges()
    atlas = Atlas(P)
    prov = atlas.provenance = {
        "bounds": tuple(str(Fraction(b)) for b in window.bounds),
        "grid_resolution": str(Fraction(window.grid_resolution)),
        "max_period": window.max_period,
        "singular_skipped": 0,
        "undecided": 0,
        "seeds": 0,
    }
    # per length, a rotation of each atlas code written twice as
    # chr(label), joined by "\0": a word of that length is a rotation of an
    # atlas code, so has its canonical code, iff it is a substring of that
    # string (as in ``is_symmetric``)
    known = {}
    xs, ts = window.grid()
    fxs, sine = [float(x) for x in xs], context(n).float_sine()
    for tx in ts:
        fy = float(tx) * sine
        for x, fx in zip(xs, fxs):
            prov["seeds"] += 1
            word = _float_periodic_code(orders, fx, fy, window.max_period)
            if word is None:
                rec = iterate(P, 1, from_scaled(n, x, tx), window.max_period)
                if rec.termination in ("inside", "hit_singular"):
                    prov["singular_skipped"] += 1
                    continue
                word = rec.cycle_code() if rec.termination == "exact_repeat" else []
            if not word:
                prov["undecided"] += 1
                continue
            if len(word) % 2:
                word = word * 2  # the doubled_even() word: canonical codes rotate it
            text = "".join(map(chr, word))
            if text in known.get(len(word), ""):
                continue
            try:
                tile = tile_from_code(P, Code(word).canonical_code())
            except CodeNotRealizableError:
                prov["undecided"] += 1
                continue
            atlas.add(tile)
            known[len(word)] = known.get(len(word), "") + "\0" + text * 2
    return atlas


# -- same-code regions --------------------------------------------------------


@dataclass(frozen=True)
class SCRegion:
    """Truncated region of points sharing the first ``depth`` code symbols."""

    x: CycloNum
    lam: Fraction
    depth: int
    polygon: ConvexPolygon


def _scr_word(P, lam, x, depth):
    """x's first ``depth`` labels, as ``iterate`` reads them."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rec = iterate(P, lam, x, depth)
    if rec.singular_step:
        raise ObcError(f"orbit hits the singular set at step {rec.singular_step}")
    if not rec.code:
        kind = "inside" if rec.termination == "inside" else "singular"
        raise ObcError(f"point is {kind}; its code is undefined")
    return rec.prefix(depth)[0]


def scr_region(P, lam, x, depth):
    """Exact truncated same-code region around x outside P: the
    ``code_region`` of x's first ``depth`` labels.  ObcError when x lies
    outside the box that ``code_region`` clips to, as a far seed can."""
    lam = Fraction(lam)
    res = code_region(P, lam, _scr_word(P, lam, x, depth))
    if res.polygon is None:
        raise ObcError(f"same-code region degenerated: {res.kind}")
    if not res.polygon.contains(x):
        raise ObcError(
            "region does not contain its seed: the seed lies outside the box "
            f"|x|, |ytilde| <= w that clips the region, half-width w = {float(res.half_width):g}")
    return SCRegion(x, lam, depth, res.polygon)


def picture_convergence(P, x, lambdas, depth=None):
    """Hausdorff distance of truncated same-code regions outside P to x's tile.

    x must be periodic for the uncontracted map; returns [(lam, dist)] in
    the order given.  depth defaults to 50 periods (truncation is
    conservative: deeper regions are nested inside shallower ones).
    """
    code = seed_code(P, x, 4 * (depth or 256) + 16)
    if depth is None:
        depth = 50 * len(code)
    tile = tile_from_code(P, code)
    out = []
    for lam in lambdas:
        lam = Fraction(lam)
        if lam == 1:
            out.append((lam, 0.0))
            continue
        region = scr_region(P, lam, x, depth)
        out.append((lam, hausdorff_distance(region.polygon, tile.polygon)))
    return out


# -- persistence ---------------------------------------------------------------

_HEADER_PREFIX = "obc-atlas v1 n="


def save_atlas(atlas, path):
    """Write the atlas in its line format: a header then one sorted entry
    per line (code, period, exact vertices, symmetry flag, verdict).

    The header names the polygon by n alone, so only an atlas of
    ``regular_ngon(n)`` itself, its vertices in label order, can be saved.
    The file is written to a temporary file beside ``path`` and then renamed
    over it, so a failed write leaves any existing atlas at ``path`` intact.
    """
    # ordered tuples: ConvexPolygon's == ignores rotation, i.e. relabelling
    if atlas.polygon.vertices != regular_ngon(atlas.n).vertices:
        raise ObcError(
            "only atlases of regular_ngon(n), vertices in label order, can be "
            "saved; the file format identifies the polygon by n alone"
        )
    lines = [f"{_HEADER_PREFIX}{atlas.n}"]
    for key in sorted(atlas.entries):
        t = atlas.entries[key]
        if t.stability is None or t.symmetric is None:
            raise ObcError(f"tile {t.code.serialize()} has no verdicts; see tile_from_code")
        lines.append(
            "code=" + ",".join(str(a) for a in t.code.word)
            + f";period={t.period}"
            + ";vertices=" + t.polygon.serialize()
            + f";symmetric={int(t.symmetric)}"
            + f";stable={t.stability.verdict}"
        )
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_atlas(path):
    """Read an atlas, re-deriving each tile from its code and rejecting
    entries whose stored data disagrees; diagnostics carry line numbers."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise AtlasFormatError("missing atlas header", lineno=1)
    try:
        n = int(lines[0][len(_HEADER_PREFIX):])
        check_conductor(n)
        P = regular_ngon(n)
    except ValueError as exc:
        raise AtlasFormatError(f"bad conductor: {exc}", lineno=1) from exc
    atlas = Atlas(P, provenance={"loaded_from": str(path)})
    diagnostics = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            entry = _parse_entry(line)
            code = Code.parse(entry["code"])
            code.validate_labels(n)
            tile = tile_from_code(P, code)
            stored = ConvexPolygon.parse(entry["vertices"])
            if stored != tile.polygon:
                raise AtlasFormatError("stored vertices disagree with the code's tile")
            if int(entry["period"]) != tile.period:
                raise AtlasFormatError("stored period disagrees with the code")
            if tile.stability.verdict != entry["stable"]:
                raise AtlasFormatError("stored verdict disagrees")
            if bool(int(entry["symmetric"])) != tile.symmetric:
                raise AtlasFormatError("stored symmetry flag disagrees")
            atlas.add(tile)
        except (AtlasFormatError, ObcError, ValueError, KeyError) as exc:
            diagnostics.append(f"line {lineno}: rejected ({exc})")
    atlas.provenance["diagnostics"] = diagnostics
    return atlas


def _parse_entry(line):
    out = {}
    for part in line.split(";"):
        k, sep, v = part.partition("=")
        if not sep:
            raise AtlasFormatError(f"bad field {part!r}")
        out[k] = v
    for req in ("code", "period", "vertices", "symmetric", "stable"):
        if req not in out:
            raise AtlasFormatError(f"missing field {req!r}")
    return out
