"""Periodic points, unfolding chains, tiles and the two tile verdicts.

A finite code C of length k determines the composed affine map
F_{k-1} o ... o F_0, each F_i being the reflection across the coded vertex
followed by contraction.  Its unique fixed point is

    q_C(lam) = (1 + lam) / (1 - (-lam)^k) * sum_i (-lam)^(k-1-i) * v_i,

exact for rational lam.  For even k the formula degenerates at lam = 1; if
the alternating vertex sum vanishes the limit exists and equals

    (2/k) * sum_i (k-1-i) * w_i       with w_i = (-1)^i * v_i,

which is also the barycenter of any unfolded base-point chain.  A tile is
stable under contraction exactly when that point lies in its interior, and
symmetric when a label shift of its code is a cyclic shift of the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CodeNotRealizableError,
    IndeterminateFixedPointError,
    StabilityPreconditionError,
)
from .field import CycloNum
from .dynamics import Code, reflect_contract
from .geometry import ConvexPolygon, halfplane_left_of, intersect_halfplanes


@dataclass(frozen=True)
class UnfoldingChain:
    """Base-point chain p_0..p_k with step vectors w_i (p_{i+1} = p_i + 2 w_i)."""

    base: CycloNum
    points: tuple
    step_vectors: tuple

    def closes(self):
        return self.points[0] == self.points[-1]

    def barycenter(self):
        k = len(self.points) - 1
        s = self.points[0]
        for p in self.points[1:k]:
            s = s + p
        return s * Fraction(1, k)


@dataclass(frozen=True)
class StabilityReport:
    limit_point: CycloNum
    verdict: str      # "stable" | "unstable" | "marginal"
    membership: str   # "interior" | "exterior" | "boundary"


@dataclass
class Tile:
    """Open convex tile of mutually periodic points sharing a code."""

    polygon: ConvexPolygon
    code: Code
    period: int
    symmetric: bool | None = None
    stability: StabilityReport | None = None

    def center(self):
        return self.polygon.centroid()


def _code_vertices(P, code):
    vs = P.vertices
    return [vs[a - 1] for a in code]


def code_fixed_point(P, code, lam):
    """The unique fixed point of the code's composed affine map, exactly."""
    code = Code.coerce(code)
    code.validate_labels(len(P.vertices))
    lam = Fraction(lam)
    if not 0 < lam <= 1:
        raise ValueError("need 0 < lam <= 1")
    k = len(code.word)
    neg = -lam
    den = 1 - neg**k
    if den == 0:
        raise IndeterminateFixedPointError("indeterminate; use stability_limit")
    acc = CycloNum.zero(P.vertices[0].n)
    power = Fraction(1)
    for v in reversed(_code_vertices(P, code.word)):
        acc = acc + v * power
        power *= neg
    return acc * ((1 + lam) / den)


def compose_code_map(P, code, lam, z):
    """Apply the k coded reflection-contractions to z, in code order."""
    lam = Fraction(lam)
    for v in _code_vertices(P, Code.coerce(code).word):
        z = v * (1 + lam) - z * lam
    return z


def validate_periodic(P, code, lam):
    """True iff the hypothetical periodic point realizes the code.

    At lam = 1 with even-length code the fixed point is indeterminate; the
    orbit of the tile centroid decides instead.
    """
    code = Code.coerce(code)
    lam = Fraction(lam)
    try:
        q = code_fixed_point(P, code, lam)
    except IndeterminateFixedPointError:
        try:
            q = tile_from_code(P, code).center()
        except CodeNotRealizableError:
            return False
    return follows_code(P, lam, q, code)


def code_endpoint(P, lam, z, code):
    """The point the orbit of z reaches after following the code symbol by
    symbol, each step strictly inside its vertex wedge (exact); None if the
    orbit leaves the code or meets the singular set.

    The expected label a is confirmed by the two edge signs that vertex
    selection reads: z strictly left of the edge leaving v_a and strictly
    right of the edge entering it.
    """
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    if not 0 < p <= q:
        raise ValueError("need 0 < lam <= 1")
    vs = P.vertices
    m = len(vs)
    for a in Code.coerce(code).word:
        if a > m or P.edge_sign(a - 1, z) <= 0 or P.edge_sign(a - 2, z) >= 0:
            return None
        z = reflect_contract(vs[a - 1], p, q, z)
    return z


def follows_code(P, lam, q, code):
    """True iff the orbit of q follows the code symbol by symbol and is
    back at q after the last one (exact)."""
    return code_endpoint(P, lam, q, code) == q


def unfold(P, code, base=None):
    """Reflect P along the code, keeping the point fixed.

    After i reflections the copy of P is z -> (-1)^i z + c_i, so the base
    point's copy p_i reaches the copy of the coded vertex v_{a_i} by the step
    vector w_i = (-1)^i (v_{a_i} - base), and p_{i+1} = p_i + 2 w_i.  Returns
    the chain p_0..p_k with its step vectors.
    """
    code = Code.coerce(code)
    code.validate_labels(len(P.vertices))
    if base is None:
        base = P.centroid()
    pts = [base]
    ws = []
    for i, v in enumerate(_code_vertices(P, code.word)):
        w = v - base if i % 2 == 0 else base - v
        ws.append(w)
        pts.append(pts[-1] + w * 2)
    return UnfoldingChain(base, tuple(pts), tuple(ws))


def code_constraints(P, lam, word):
    """Two half-planes per label, carving the set of points whose first
    len(word) labels under the map with rate lam are the word.

    Step i's selection wedge is pulled back through the inverse of the first
    i steps, G_i(z) = alpha*z + beta, which keeps every boundary line exactly
    representable.  Tiles (lam = 1) and same-code regions (lam < 1) are both
    intersections of these half-planes.
    """
    lam = Fraction(lam)
    vs = P.vertices
    m = len(vs)
    cons = []
    alpha = Fraction(1)
    beta = CycloNum.zero(vs[0].n)
    for a in word:
        v = vs[a - 1]
        # G_i has scalar linear part, so it preserves orientation and
        # mapping the three points that define the wedge suffices
        apex = v * alpha + beta
        cons.append(halfplane_left_of(apex, vs[a % m] * alpha + beta))
        cons.append(halfplane_left_of(apex, vs[(a - 2) % m] * alpha + beta))
        # next inverse map: z -> G_i(((1+lam) v - z)/lam)
        beta = beta + v * (alpha * (1 + lam) / lam)
        alpha = -alpha / lam
    return cons


def tile_from_code(P, code):
    """The open tile of points whose periodic itinerary is the given code.

    The polygon is the intersection of code_constraints at lam = 1 over one
    period (the code is doubled first when its length is odd).  The tile
    corresponds to the code's own phase: rotating the code yields the
    tile's image under the map.
    """
    code = Code.coerce(code)
    res = intersect_halfplanes(code_constraints(P, 1, code.doubled_even()))
    if res.kind != "polygon":
        raise CodeNotRealizableError(f"code not realizable ({res.kind})")
    return Tile(polygon=res.polygon, code=code, period=code.period)


def alternating_vertex_sum(P, code):
    """sum_i (-1)^(k-1-i) v_i; must vanish for the limit point to exist."""
    word = Code.coerce(code).word
    acc = CycloNum.zero(P.vertices[0].n)
    k = len(word)
    for i, v in enumerate(_code_vertices(P, word)):
        acc = acc + (v if (k - 1 - i) % 2 == 0 else -v)
    return acc


def stability_limit(P, code):
    """Limit of the fixed-point curve as the contraction rate tends to 1.

    Equals (2/k) * sum_i (k-1-i) * (-1)^i * v_i, and also the barycenter
    (1/k) * sum_j p_j of any unfolded chain.
    """
    code = Code.coerce(code)
    word = code.doubled_even()
    if not alternating_vertex_sum(P, word).is_zero():
        raise StabilityPreconditionError(
            "alternating vertex sum does not vanish; not a tile code"
        )
    k = len(word)
    acc = CycloNum.zero(P.vertices[0].n)
    for i, v in enumerate(_code_vertices(P, word)):
        c = Fraction(2 * (k - 1 - i), k)
        acc = acc + v * (c if i % 2 == 0 else -c)
    return acc


def is_lambda_stable(P, code):
    """Stability verdict by exact location of the limit point (the chain
    barycenter) in the open tile: interior = stable, boundary = marginal."""
    return _stability(P, tile_from_code(P, code))


def _stability(P, tile):
    limit = stability_limit(P, tile.code)
    membership = tile.polygon.locate(limit)
    verdict = {"interior": "stable", "boundary": "marginal", "exterior": "unstable"}[membership]
    return StabilityReport(limit, verdict, membership)


def iterate_tiles(P, tile):
    """The polygons T(Q), T^2(Q), ... over one primitive period."""
    vs_code = _code_vertices(P, tile.code.word)
    out = []
    poly = tile.polygon
    for i in range(tile.period):
        v = vs_code[i % len(vs_code)]
        poly = poly.mapped(lambda z, v=v: v * 2 - z)
        out.append(poly)
    return out


def is_symmetric(P, tile):
    """True iff a rotation of P by 2*pi*j/n, 0 < j < n, maps the tile onto
    one of its own map-iterates.  The rotation commutes with the map and
    adds j to every label (mod n; P is centred at 0, labelled CCW), and the
    iterates are the tiles of the code's cyclic shifts, so this reads only
    the code: some C + j must have C's canonical code."""
    n = len(P.vertices)
    word = tile.code.word
    canon = tile.code.canonical()
    return any(Code([(a - 1 + j) % n + 1 for a in word]).canonical() == canon
               for j in range(1, n))


def analyze_tile(P, tile):
    """Attach symmetry and stability verdicts to a tile (in place)."""
    tile.symmetric = is_symmetric(P, tile)
    tile.stability = _stability(P, tile)
    return tile
