"""Periodic points and their capture regions, tiles and the two tile
verdicts.

A finite code C of length k determines the composed affine map
F_{k-1} o ... o F_0, each F_i being the reflection across the coded vertex
followed by contraction.  Its unique fixed point is

    q_C(lam) = (1 + lam) / (1 - (-lam)^k) * sum_i (-lam)^(k-1-i) * v_i,

exact for rational lam.  For even k the formula degenerates at lam = 1; if
the alternating vertex sum vanishes the limit exists and equals

    (2/k) * sum_i (k-1-i) * w_i       with w_i = (-1)^i * v_i,

which is also the barycenter of any unfolded base-point chain.  Both sums,
and the alternating vertex sum, take one field product per distinct label
(``_vertex_sum``).  A tile is stable under contraction exactly when that
point lies in its interior, and symmetric when a label shift of its code is
a cyclic shift of the code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat

from .errors import (
    CodeNotRealizableError,
    IndeterminateFixedPointError,
    StabilityPreconditionError,
)
from .field import CycloNum, _reduced, context, sign_of_real
from .dynamics import Code, float_select, iterate, reflect_contract
from .geometry import (
    _SLACK,
    ConvexPolygon,
    HalfPlane,
    _auto_half_width,
    _half_width,
    intersect_halfplanes,
)


@dataclass(frozen=True)
class StabilityReport:
    limit_point: CycloNum
    verdict: str      # "stable" | "unstable" | "marginal"
    membership: str   # "interior" | "exterior" | "boundary"


@dataclass
class Tile:
    """Open convex tile of mutually periodic points sharing a code, with the
    verdicts that tile_from_code fills in (None in a Tile made by hand)."""

    polygon: ConvexPolygon
    code: Code
    symmetric: bool | None = None
    stability: StabilityReport | None = None

    @property
    def period(self):
        return self.code.period

    def center(self):
        return self.polygon.centroid()


def _code_vertices(P, code):
    vs = P.vertices
    return [vs[a - 1] for a in code]


def _vertex_sum(P, word, weights, scale=1):
    """scale * sum_i weights[i] * v_{word[i]}, exactly: the integer weights
    are added per label first, so it takes one field product per distinct
    label and one rational scaling."""
    per_label = dict.fromkeys(word, 0)
    for a, w in zip(word, weights):
        per_label[a] += w
    vs = P.vertices
    total = sum((vs[a - 1] * w for a, w in per_label.items() if w), CycloNum.zero(vs[0].n))
    return total if scale == 1 else total * scale


def code_fixed_point(P, code, lam):
    """The unique fixed point of the code's composed affine map, exactly."""
    code = Code.coerce(code)
    code.validate_labels(len(P.vertices))
    lam = Fraction(lam)
    if not 0 < lam <= 1:
        raise ValueError("need 0 < lam <= 1")
    k = len(code.word)
    p, q = lam.numerator, lam.denominator
    den = q**k - (-p) ** k
    if den == 0:
        raise IndeterminateFixedPointError("indeterminate; use stability_limit")
    # letter i weighs (1 + lam) / (1 - (-lam)^k) * (-lam)^(k-1-i), that is
    # (p + q) / den * (-p)^(k-1-i) q^i: from the last letter back
    weights = accumulate(repeat(-p, k - 1), lambda w, m: w * m // q, initial=q ** (k - 1))
    return _vertex_sum(P, code.word[::-1], weights, Fraction(p + q, den))


def compose_code_map(P, code, lam, z):
    """Apply the k coded reflection-contractions to z, in code order."""
    lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    for v in _code_vertices(P, Code.coerce(code).word):
        z = reflect_contract(v, p, q, z)
    return z


def validate_periodic(P, code, lam):
    """True iff the hypothetical periodic point realizes the code.

    At lam = 1 with even-length code the fixed point is indeterminate; the
    code is realized exactly when ``tile_from_code`` certifies its tile.
    """
    code = Code.coerce(code)
    lam = Fraction(lam)
    try:
        q = code_fixed_point(P, code, lam)
    except IndeterminateFixedPointError:
        try:
            tile_from_code(P, code)
        except CodeNotRealizableError:
            return False
        return True
    return follows_code(P, lam, q, code)


def code_endpoint(P, lam, z, code):
    """The point the orbit of z reaches after following the code symbol by
    symbol, each step strictly inside its vertex wedge (exact); None if the
    orbit leaves the code or meets the singular set.

    The labels are those of ``iterate(P, lam, z, len(code))``, read on
    around its cycle if the orbit closes sooner (``OrbitRecord.prefix``).
    """
    word = Code.coerce(code).word
    run = iterate(P, lam, z, len(word)).prefix(len(word))
    return run[1] if run is not None and run[0] == word else None


def follows_code(P, lam, q, code):
    """True iff the orbit of q follows the code symbol by symbol and is
    back at q after the last one (exact; ``code_endpoint``)."""
    return code_endpoint(P, lam, q, code) == q


class CaptureRegion:
    """The capture region K of an even word (``capture_region``): every point
    of K's interior follows the word forever.  ``edges`` holds, per edge of
    K, the constants (fa, fb, fc, k1, k0) of ``geometry._line``'s bound for
    that edge's clip line, whose open side is the left of the edge
    (``ConvexPolygon.edge_lines``)."""

    __slots__ = ("word", "polygon", "edges")

    def __init__(self, word, polygon, edges):
        self.word = word
        self.polygon = polygon
        self.edges = edges

    def holds(self, x, t):
        """True only if the point with floats (x, ytilde) = (x, t), read
        exactly, lies in K's interior: its float value on each edge's
        clip line clears ``geometry._line``'s bound at input error 0, so the
        exact value is positive.  False proves nothing: a point within the
        bound of some edge is just not captured."""
        r = max(abs(x), abs(t))
        for fa, fb, fc, k1, k0 in self.edges:
            if not fa * x + fb * t + fc > _SLACK * (k1 * r + k0):
                return False
        return True


def capture_region(P, W, lam):
    """The capture region of the word W (doubled when odd) at rate lam, a
    ``CaptureRegion``; None when q_W is not real (``follows_code``) or does
    not lie in the interior of K.  Needs 0 < lam < 1.

    K = ``code_region(P, lam, W)``.  Proof that every point z of K's
    interior follows W forever.  K is the intersection of closed
    half-planes with q_W in its interior, so its interior is the
    intersection of the open ones: it lies in the open box and in the open
    region R_W of points whose first |W| labels are W, strictly inside each
    vertex wedge (``code_constraints``).  So z follows W for |W| steps and
    reaches F_W(z) = q_W + lam^|W| (z - q_W), the composed map of the |W|
    steps, |W| even, with fixed point q_W.  As 0 < lam^|W| < 1, F_W(z) lies
    on the segment from z to q_W, both in the open convex interior, and so
    in it too; by induction the orbit of z follows W forever.  (q_W in that
    interior also follows W; ``follows_code`` runs first only because it
    rejects a cycle that is not real without building K.)
    """
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("need 0 < lam < 1")
    W = Code.coerce(W).doubled_even()
    q = code_fixed_point(P, W, lam)
    if not follows_code(P, lam, q, W):
        return None
    K = code_region(P, lam, W).polygon
    if K is None or K.locate(q) != "interior":
        return None
    edges = tuple((fa, fb, fc, k1, k0) for _, fa, fb, fc, k1, _, k0, *_ in K.edge_lines())
    return CaptureRegion(W, K, edges)


def captured_word(P, x, y, lam, max_steps, regions):
    """Canonical word of the cycle that provably captures the float orbit
    of the point (x, y), or None if none does within max_steps.

    Before each float step the point, read as (x, y / sin(2*pi/n)), is
    tested against each capture region (``capture_region``) whose word
    starts with the label the float screen just chose
    (``CaptureRegion.holds``); the orbit stops in the first that holds it,
    every point of which follows the region's word forever.  Every 16 float
    steps, p is the least period <= 120 of the recent labels, and the
    region of the last p labels is certified if it is new.  The float orbit
    before capture is not proved; after label a it screens ``orders[a]``
    (``P.float_wedges()``).  ``regions`` maps each label a to a dict from
    the tails of p labels that start with a to their region (or None) and
    canonical word; calls may share it for the same P and lam.  Needs
    0 < lam < 1.
    """
    lamf = float(lam)
    # rounding is monotone and keeps 0 and 1, so 0 < lamf < 1 proves 0 < lam < 1
    if not 0.0 < lamf < 1.0 and not 0 < lam < 1:
        raise ValueError("need 0 < lam < 1")
    orders = P.float_wedges()
    lbl = 0  # orders[0] is the label order: no label taken yet
    grow = 1 + lamf
    scale = context(P.vertices[0].n).float_sine()
    code = []
    for i in range(1, max_steps + 1):
        row = float_select(orders[lbl], x, y)
        if row is None:
            return None
        lbl, vx, vy = row[0], row[1], row[2]
        tails = regions.get(lbl)
        if tails:
            t = y / scale
            for region, word in tails.values():
                if region is not None and region.holds(x, t):
                    return word
        x = grow * vx - lamf * x
        y = grow * vy - lamf * y
        code.append(lbl)
        if i % 16:
            continue
        p = next((p for p in range(1, min(120, i // 2) + 1)
                  if code[-p:] == code[-2 * p : -p]), None)
        if p is None:
            continue
        key = tuple(code[-p:])
        tails = regions.setdefault(key[0], {})
        if key not in tails:
            tails[key] = capture_region(P, key, lam), Code(key).canonical()
    return None


def _pullbacks(P, lam, word):
    """Per label a of the word, in order, (a, s, Q, B): the inverse G_i of
    the steps before it is z -> alpha*z + beta with alpha = s / Q and
    beta = B / Q, Q = L p^i, s = (-q)^i L and the integer vector B
    (``code_constraints``).  Each step makes a new B."""
    p, q = lam.numerator, lam.denominator
    vs = P.vertices
    L = math.lcm(*(v.den for v in vs))
    vnum = [tuple(c * (L // v.den) for c in v.num) for v in vs]
    B = [0] * len(vnum[0])
    an, ad = 1, 1  # alpha = an / ad
    for a in word:
        yield a, an * L, ad * L, B
        # next inverse map: z -> G_i(((1+lam) v - z)/lam)
        f = an * (p + q)
        B = [p * b + f * c for b, c in zip(B, vnum[a - 1])]
        an *= -q
        ad *= p


def _edge_offset(n, form, s, B, Q, forward):
    """The offset of edge e's half-plane pulled back through z -> (s z + B)/Q,
    exactly: g = s*const - rows.B over D*Q, reduced by one gcd, from edge
    e's integer form (rows, const, D); negated for the reversed half-plane
    (``code_constraints``)."""
    rows, const, D = form
    g = [s * c for c in const]
    for b, row in zip(B, rows):
        if b:
            for k, r in row:
                g[k] -= b * r
    c = _reduced(n, g, D * Q)
    return c if forward else -c


def _offset_float(entry, fs, fB, fQ):
    """(f, e): a float f of the offset (s*C - sum_j B_j R_j) / Q that
    ``_edge_offset`` builds exactly, and a bound e >= |f - offset|.

    Inputs: fs, fB and fQ are the correctly rounded floats of the integers
    s, B and Q, here the whole denominator D*Q of ``_edge_offset``.
    ``entry`` is the edge's row of ``P.form_floats()``: floats fC and fR_j
    within eC and eR_j of the real values C of const and R_j of row j
    (``_real_float``), with the weights wC = eC + (m + 5) u |fC| and
    wR_j = eR_j + (m + 5) u |fR_j|, m = phi + 1 products, u = 2^-53.

    Claim: with x the integers (s, -B_j), y the reals (C, R_j) and fx, fy
    their floats within u |x| and eps of them,

        |f - offset| <= (1 + 4u) sum |fx| (eps + (m + 5) u |fy|) / fQ,

    and e is computed as 1.01 times the right side without its (1 + 4u).
    (a) |fx fy - x y| <= u |x| |y| + |fx| eps and |x| <= |fx| / (1 - u),
    |y| <= |fy| + eps.  (b) The sum v of the m products, in any order,
    errs by at most gamma_m sum |fx fy| from their exact sum, gamma_m =
    m u / (1 - m u) (Higham, Accuracy and Stability of Numerical
    Algorithms, (3.5)).  (c) f = fl(v / fQ) with |fQ - Q| <= u Q, so
    |f - N/Q| <= (2u |v| + (1 + u) |v - N|) / fQ for N = s C - sum B_j R_j,
    and |v| <= (1 + gamma_m) sum |fx fy|.  Gathering (a)-(c): each |fx| eps
    term carries at most (1 + 4u), each |fx fy| at most (m + 5) u.  The
    bound's own evaluation rounds at most 2m + 4 times (the weights
    included), far below what the 1 % of ``_SLACK`` covers.  Underflow:
    each product and the division err by at most 2^-1075 more, under
    2^-1066 in all; the caller passes only Q < 2^960, and |s| / Q >= 1 / D
    >= 2^-960 with eC >= E >= 2^-47 (``to_complex_error``), so e exceeds
    2^-1007 and its 1 % slack covers that.  A product that overflowed
    leaves f or e infinite or NaN, and then (0.0, math.inf) is returned,
    which decides nothing.
    """
    fc, wc, fr, wr = entry
    v = fs * fc
    m = abs(fs) * wc
    for b, r, w in zip(fB, fr, wr):
        v -= b * r
        m += abs(b) * w
    f, e = v / fQ, _SLACK * m / fQ
    if not abs(f) + e < math.inf:
        return 0.0, math.inf
    return f, e


def code_constraints(P, lam, word):
    """Two half-planes per label, carving the set of points whose first
    len(word) labels under the map with rate lam are the word.

    Step i's selection wedge is pulled back through the inverse of the first
    i steps, G_i(z) = alpha*z + beta with rational alpha, which keeps every
    boundary line exactly representable.  The wedge of label a is left of
    v_a -> v_{a+1} (edge a-1 of P) and left of v_a -> v_{a-1} (edge a-2
    reversed).  With edge e's value F(w) = a0*x + b0*ytilde + c0, the
    pulled-back value is F(G_i^-1(z)) = (a0*x + b0*ytilde + g) / alpha,
    g = alpha*c0 - (F(beta) - c0).  So each pulled-back half-plane is P's
    cached edge half-plane (a0, b0, g), or its cached reversal
    (-a0, -b0, -g) where the sign of alpha flips the side: parallel
    half-planes share their normal exactly, which intersect_halfplanes
    reads.

    No label takes a field product.  For lam = p/q, alpha = (-q)^i / p^i and
    beta = B / (L p^i) with an integer vector B and L the common denominator
    of P's vertices: beta gains v_a * alpha * (1 + lam) / lam per step, so
    B becomes p*B + (-q)^i (p + q) L v_a (``_pullbacks``).  Edge e's integer
    form (``ConvexPolygon.edge_forms``, const = D*c0 and rows giving
    D*den*(F(w) - c0) from w's numerators) then gives g's numerators
    s*const - rows.B over D*Q, s = (-q)^i L and Q = L p^i, reduced by one
    gcd (``_edge_offset``).  At lam = 1 alpha = +-1 and B is a sum of
    +-2 L v_a.  The float of each offset is the same sum over the real
    values of const and rows, which P caches (``_offset_float``).  Tiles
    (lam = 1) and same-code regions (lam < 1) are both intersections of
    these half-planes (``code_region``).
    """
    lam = Fraction(lam)
    if not 0 < lam <= 1:
        raise ValueError("need 0 < lam <= 1")
    n = P.vertices[0].n
    base = P.edge_halfplanes()
    forms = P.edge_forms()
    cons = []
    for a, s, Q, B in _pullbacks(P, lam, word):
        # left of edge a-1 and right of edge a-2, both flipped for alpha < 0
        for e, forward in ((a - 1, s > 0), (a - 2, s < 0)):
            hp = base[e][0 if forward else 1]
            cons.append(HalfPlane(hp.a, hp.b, _edge_offset(n, forms[e], s, B, Q, forward)))
    return cons


def _offset_floats(P, lam, word, built):
    """Per half-plane of ``code_constraints(P, lam, word)``, in its order,
    (e, forward, f, err, exact): edge e's cached half-plane, or its reversal
    unless forward; a float f of its offset within err (``_offset_float``;
    err = math.inf where an integer passes the float range, or D*Q passes
    2^960); and exact(), which builds the offset (``_edge_offset``) once,
    keeping it in the dict ``built`` by the half-plane's index.  lam is a
    Fraction in (0, 1]."""
    n = P.vertices[0].n
    forms = P.edge_forms()
    floats = P.form_floats()
    i = 0
    for a, s, Q, B in _pullbacks(P, lam, word):
        try:
            fs, fB = float(s), [float(b) for b in B]
        except OverflowError:
            fs = None
        for e, forward in ((a - 1, s > 0), (a - 2, s < 0)):
            DQ = forms[e][2] * Q
            if fs is None or DQ.bit_length() > 960:
                f, err = 0.0, math.inf
            else:
                f, err = _offset_float(floats[e], fs, fB, float(DQ))
                if not forward:
                    f = -f

            def exact(i=i, e=e, s=s, B=B, Q=Q, forward=forward):
                c = built.get(i)
                if c is None:
                    c = built[i] = _edge_offset(n, forms[e], s, B, Q, forward)
                return c

            yield e, forward, f, err, exact
            i += 1


def _tighter(tightest, key, f, e, exact):
    """The exact offset c of a half-plane with normal ``key`` if it clips,
    else None; the skip test of ``_clipped``.

    It clips unless a clipped half-plane with that normal has an offset
    c0 <= c.  ``tightest`` maps each normal to (c0, f0, e0) of its tightest
    clipped half-plane, and is updated when this one clips.  f is a float
    within e of c, e = math.inf when nothing is known, and ``exact()``
    builds c: it is called once, and only when the half-plane clips or f
    lies within the bound of f0, where the exact c - c0 decides.

    A skipped half-plane is implied by that tighter clip, which every chain
    vertex satisfies; later clips keep vertices or add convex combinations
    of them, so they satisfy it too and its ``_clip`` would return the chain
    unchanged.  The computed d = f - f0 above the computed B = 1.01 (e + e0)
    proves c > c0: B is at least (1 + u)(e + e0) after its two roundings,
    u = 2^-53, so f - f0 >= d / (1 + u) > e + e0.  Likewise d < -B proves
    c < c0.  Otherwise, and whenever a bound is infinite, c == c0 (an
    identical half-plane) or the exact sign of c - c0 decides.
    """
    least = tightest.get(key)
    if least is None:
        c = exact()
    else:
        c0, f0, e0 = least
        d = f - f0
        bound = _SLACK * (e + e0)
        if d > bound:
            return None
        c = exact()
        if d >= -bound and (c == c0 or sign_of_real(c - c0, _checked=True) >= 0):
            return None
    tightest[key] = (c, f, e)
    return c


def _clipped(P, lam, word):
    """(hps, width): the half-planes of ``code_constraints(P, lam, word)``
    that no earlier one implies, in order, and a function that returns
    ``_auto_half_width`` of the whole list, Fraction for Fraction.

    Each offset is first a float with a proved bound (``_offset_float``):
    one dot product of the step's integers with floats P caches.  The skip
    test (``_tighter``) keeps the strict prefix minima of each normal's
    offsets, and builds an exact offset (``_edge_offset``) only for a
    half-plane that clips or whose float lies within the bound of the
    tightest clipped one's; past the float range the bound is infinite and
    every comparison is exact.

    Half-width.  Per normal, |to_complex(c).real| lies within
    r = 3 e + 2 E of |f|, E = ``to_complex_error()``: |f - c| <= e, and
    to_complex errs by at most E (T + 1) with T = sum |g_k| / (D Q) of the
    unreduced numerators (a gcd divides both), at most
    (|s| sum |const| + sum |B_j| sum |row_j|) / (D Q), which e exceeds
    divided by E; the rest of r covers the roundings of |f| +- r, as
    u |f| <= u (T + e) is below e / 64.  ``_half_width`` is monotone, so if
    it gives one value at the largest |f| - r and at the largest |f| + r of
    each normal, that is the value.  Otherwise a second pass passes
    ``_auto_half_width`` the exact offsets whose |f| + r reaches their
    normal's largest |f| - r, among them every largest |to_complex| one;
    an offset built in the first pass is not built again.
    """
    lam = Fraction(lam)
    if not 0 < lam <= 1:
        raise ValueError("need 0 < lam <= 1")
    ids = {}
    sides = [tuple(ids.setdefault((hp.a, hp.b), len(ids)) for hp in pair)
             for pair in P.edge_halfplanes()]
    normals = tuple(ids)
    slack = 2 * context(P.vertices[0].n).to_complex_error()
    built = {}
    tightest, hps, lo, hi = {}, [], {}, {}
    for e, forward, f, err, exact in _offset_floats(P, lam, word, built):
        key = sides[e][0 if forward else 1]
        c = _tighter(tightest, key, f, err, exact)
        if c is not None:
            hps.append(HalfPlane(*normals[key], c))
        r, af = 3 * err + slack, abs(f)
        if af - r > lo.get(key, -math.inf):
            lo[key] = af - r
        if af + r > hi.get(key, -math.inf):
            hi[key] = af + r

    def width():
        try:
            w = _half_width({normals[k]: v for k, v in hi.items()})
            if w == _half_width({normals[k]: v for k, v in lo.items()}):
                return w
        except OverflowError:
            pass
        near = []
        for e, forward, f, err, exact in _offset_floats(P, lam, word, built):
            key = sides[e][0 if forward else 1]
            if abs(f) + (3 * err + slack) >= lo.get(key, -math.inf):
                near.append(HalfPlane(*normals[key], exact()))
        return _auto_half_width(near)

    return hps, width


def code_region(P, lam, word):
    """``intersect_halfplanes`` of ``code_constraints(P, lam, word)``: at
    lam = 1 in the box of ``_auto_half_width``; for lam < 1 in the box of
    half-width 2n(1 + lam)/(1 - lam) + 4, n the conductor, a fixed box, as
    the offsets of a long word at small lam pass the float range, where
    ``_auto_half_width`` raises.  The clipper gets only the half-planes
    that clip and that box (``_clipped``), so its vertices are those of
    the whole list."""
    hps, width = _clipped(P, lam, word)
    if lam < 1:
        w = Fraction(2 * P.vertices[0].n) * (1 + lam) / (1 - lam) + 4
    else:
        w = width()
    return intersect_halfplanes(hps, half_width=w)


def tile_from_code(P, code):
    """The open tile of periodic points whose itinerary is the code, with
    both verdicts: the intersection of code_constraints at lam = 1 over one
    period (the code doubled when odd), in the code's own phase (rotating the
    code maps the tile).  CodeNotRealizableError unless the code is periodic
    and that intersection is a polygon.

    No orbit is run.  Kind "polygon" means a bounded region with at least 3
    non-collinear vertices, so its centroid lies in the open interior,
    strictly inside every pulled-back wedge half-plane: by code_constraints'
    construction its exact orbit takes the labels of code.doubled_even().
    An even number of point reflections is a translation by twice the
    alternating vertex sum, so the orbit comes back exactly when that sum
    vanishes (``stability_limit`` checks it), as ``follows_code(P, 1,
    tile.center(), code)`` would find by running the orbit.
    """
    code = Code.coerce(code)
    try:
        limit = stability_limit(P, code)
    except StabilityPreconditionError as exc:
        raise CodeNotRealizableError(f"code not periodic: {exc}") from None
    res = code_region(P, 1, code.doubled_even())
    if res.kind != "polygon":
        raise CodeNotRealizableError(f"code not realizable ({res.kind})")
    membership = res.polygon.locate(limit)
    verdict = {"interior": "stable", "boundary": "marginal", "exterior": "unstable"}[membership]
    tile = Tile(res.polygon, code, stability=StabilityReport(limit, verdict, membership))
    tile.symmetric = is_symmetric(P, tile)
    return tile


def alternating_vertex_sum(P, code):
    """sum_i (-1)^(k-1-i) v_i; must vanish for the limit point to exist."""
    code = Code.coerce(code)
    # _vertex_sum skips a label whose weights cancel, so check every label here
    code.validate_labels(len(P.vertices))
    word = code.word
    k = len(word)
    return _vertex_sum(P, word, ((-1) ** (k - 1 - i) for i in range(k)))


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
    return _vertex_sum(P, word, ((-1) ** i * 2 * (k - 1 - i) for i in range(k)), Fraction(1, k))


def is_lambda_stable(P, code):
    """Stability verdict by exact location of the limit point (the chain
    barycenter) in the open tile: interior = stable, boundary = marginal."""
    return tile_from_code(P, code).stability


def iterate_tiles(P, tile):
    """The polygons T(Q), T^2(Q), ... over one primitive period."""
    vs_code = _code_vertices(P, tile.code.word)
    out = []
    poly = tile.polygon
    for i in range(tile.period):
        v = vs_code[i % len(vs_code)]
        poly = poly.mapped(lambda z, v=v: reflect_contract(v, 1, 1, z))
        out.append(poly)
    return out


def is_symmetric(P, tile):
    """True iff a rotation of P by 2*pi*j/n, 0 < j < n, maps the tile onto
    one of its own map-iterates.  The rotation commutes with the map and
    adds j to every label (mod n; P is centred at 0, labelled CCW), and the
    iterates are the tiles of the code's cyclic shifts, so this reads only
    the code: some C + j must have C's canonical code, that is, the word
    W = C.doubled_even() shifted by j must be a rotation of W, a substring
    of W written twice.  One linear substring search per j, over strings
    of chr(label)."""
    n = len(P.vertices)
    word = tile.code.doubled_even()
    twice = "".join(map(chr, word)) * 2
    return any("".join([chr((a - 1 + j) % n + 1) for a in word]) in twice
               for j in range(1, n))
