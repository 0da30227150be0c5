"""Exact planar geometry over cyclotomic points.

A point is a CycloNum z = x + i*y read as a plane coordinate.  The real part
x is itself a real field element, but y generally is not (for n = 5 no field
element has imaginary part exactly 1).  All predicates therefore work with
the scaled ordinate

    ytilde = Im(z) / sin(2*pi/n) = (z - conj(z)) / (zeta - conj(zeta)),

which stays in the real subfield.  Scaling y by the positive constant
sin(2*pi/n) preserves every orientation and membership predicate; metric
quantities (norms, Hausdorff distances) are computed from certified numeric
enclosures of the true coordinates instead.  Half-plane coefficients
(a, b, c) are real field elements in these (x, ytilde) coordinates; for
n = 4 the scale factor is 1 and ytilde is the true ordinate.

Point location, and vertex selection wherever its proved float filter
abstains (``dynamics.select_vertex``), are signs of integer edge forms,
which each ConvexPolygon builds once: for z = num/den, an integer
matrix-vector product of num and den with the form of edge i gives the
numerators of a known positive multiple of cross(v[i+1] - v[i], z - v[i]) / sin(2*pi/n), and
sign_of_real decides its sign without building any intermediate element.
Divided by that multiple, the same product is the exact edge value, which
is the offset of a pulled-back edge half-plane (periodic.code_constraints).

Half-plane intersection clips (x, ytilde) pairs of real field elements
directly, so each clip evaluates a*x + b*ytilde + c once per vertex, and
the pairs become points x + i*sin(2*pi/n)*ytilde once, at the end.  A
half-plane clips only if no already clipped one with the same normal
implies it: a pulled-back wedge half-plane is one of the polygon's cached
edge half-planes with a new offset, so a tile of a long code, cut by
hundreds of them, needs a few dozen clips.  Exact clipping needs no cleanup
pass afterwards (proof at ``intersect_halfplanes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConductorMismatchError, GeometryError
from .field import CycloNum, _apply, _raw, _reduced, approximate, context, sign_of_real

# A plane point is just a CycloNum used as a complex coordinate.
ExactPoint = CycloNum

_HALF = Fraction(1, 2)


def _eta(n):
    # zeta - conj(zeta) = 2i sin(2*pi/n), purely imaginary and nonzero
    return CycloNum.zeta(n) - CycloNum.zeta(n, n - 1)


_ETA_INV = {}
_HALF_ETA = {}


def _eta_inv(n):
    v = _ETA_INV.get(n)
    if v is None:
        v = _eta(n).inverse()
        _ETA_INV[n] = v
    return v


def _half_eta(n):
    # i sin(2*pi/n): the point with Re = 0 and ytilde = 1
    v = _HALF_ETA.get(n)
    if v is None:
        v = _eta(n) * _HALF
        _HALF_ETA[n] = v
    return v


def real_part(z):
    """Re(z) as an exact real field element."""
    return (z + z.conj()) * _HALF


def imag_scaled(z):
    """Im(z) / sin(2*pi/n) as an exact real field element."""
    return (z - z.conj()) * _eta_inv(z.n)


def from_scaled(n, x, ytilde):
    """Point with Re = x and Im = ytilde * sin(2*pi/n); x, ytilde rational."""
    return CycloNum.from_rational(n, x) + _half_eta(n) * Fraction(ytilde)


def from_xy_approx(n, x, y):
    """Field point within 2^-20 of the true coordinates (x, y).

    Exact in y for n = 4 (where sin(2*pi/n) = 1); otherwise the scaled
    ordinate is rounded to the nearest dyadic.
    """
    x = Fraction(x)
    y = Fraction(y)
    if n == 4:
        return from_scaled(4, x, y)
    sigma = math.sin(2.0 * math.pi / n)
    t = Fraction(round(float(y) / sigma * (1 << 20)), 1 << 20)
    return from_scaled(n, x, t)


def point_xy(z, bits=60):
    """True coordinates of z as floats: the midpoints of its certified
    enclosure at ``bits`` bits.

    Each float is within 2^-bits + u (|c| + 2^-bits) of the true coordinate
    c, u = 2^-53: ``approximate`` widens an integer enclosure narrower than
    2^-(bits + 15) outward to its 2^-(bits + 2) grid, by under two grid
    units a side, so the enclosure is narrower than 2^(1 - bits); float()
    rounds its exact midpoint correctly.  ``ConvexPolygon.float_extent``
    states this bound for the float vertices (``bits`` = 60), and
    ``dynamics.select_vertex`` certifies vertices with it.
    """
    (rl, rh), (il, ih) = approximate(z, bits)
    return (float(rl + rh) / 2.0, float(il + ih) / 2.0)


def cross_scaled(u, w):
    """cross(u, w) / sin(2*pi/n) as an exact real field element."""
    p = u.conj() * w
    return (p - p.conj()) * _eta_inv(u.n)


def dot_part(u, w):
    """Dot product of u and w as an exact real field element."""
    p = u.conj() * w
    return (p + p.conj()) * _HALF


def norm_sq(z):
    """|z|^2 as an exact real field element."""
    return z * z.conj()


def orientation(a, b, c):
    """Exact sign of cross(b - a, c - a); +1 means counterclockwise."""
    return sign_of_real(cross_scaled(b - a, c - a), _checked=True)


def _edge_form(p, q):
    """Integer linear form of the directed line p -> q.

    Returns (rows, const, D), rows[j] the sparse nonzero entries of row j:
    for a point z = num/den the integers den*const[k] + sum_j num[j]*rows[j][k]
    are the power-basis numerators of D*den*cross(q - p, z - p)/sin(2*pi/n),
    D > 0 the product of p.den and the denominator of a below.  With
    a = conj(q - p)/(zeta - conj(zeta)), cross(q - p, w)/sin(2*pi/n) =
    a*w + conj(a*w), so row j is the image of zeta^j,
    a*zeta^j + conj(a)*zeta^-j: a and conj(a) shift once per row.
    """
    n = p.n
    ctx = context(n)
    phi = ctx.phi
    zeta, zeta_inv = ctx.zeta_rows[phi], ctx.zeta_rows[n - 1]
    a = (q - p).conj() * _eta_inv(n)
    D = a.den * p.den
    a = a.num
    b = _apply(a, ctx.sigma(n - 1))
    rows = []
    for _ in range(phi):
        rows.append([x + y for x, y in zip(a, b)])
        a = [x + a[-1] * t for x, t in zip([0, *a[:-1]], zeta)]
        b = [x + b[0] * t for x, t in zip([*b[1:], 0], zeta_inv)]
    # over the common denominator p.den: rows scale by p.den, p moves to const
    const = tuple(-sum(c * row[k] for c, row in zip(p.num, rows)) for k in range(phi))
    return tuple(tuple((k, x * p.den) for k, x in enumerate(row) if x) for row in rows), const, D


class ConvexPolygon:
    """Strictly convex polygon, vertices in counterclockwise order.

    Vertex selection and location read the signs of integer edge forms,
    built once per polygon on first use (``edge_sign``); the same forms give
    exact edge values (``edge_value``), and the 2n edge half-planes are
    cached next to them (``edge_halfplanes``).
    """

    __slots__ = ("vertices", "_key", "_float", "_extent", "_forms", "_halfplanes", "_wedges")

    def __init__(self, vertices, validate=True):
        vertices = tuple(vertices)
        if len(vertices) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        if validate:
            m = len(vertices)
            for i in range(m):
                if orientation(vertices[i], vertices[(i + 1) % m], vertices[(i + 2) % m]) != 1:
                    raise GeometryError("vertices are not strictly convex counterclockwise")
        self.vertices = vertices
        self._key = None
        self._float = None
        self._extent = None
        self._forms = None
        self._halfplanes = None
        self._wedges = None

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"ConvexPolygon({len(self.vertices)} vertices)"

    def edges(self):
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def centroid(self):
        s = self.vertices[0]
        for v in self.vertices[1:]:
            s = s + v
        return s * Fraction(1, len(self.vertices))

    def _edge_acc(self, i, z):
        """The numerators of D*den*cross(v[i+1] - v[i], z - v[i]) / sin(2*pi/n)
        for z = num/den, D the constant of edge i's form (``_edge_form``):
        one integer matrix-vector product with the cached form."""
        vs = self.vertices
        if z.n != vs[0].n:
            raise ConductorMismatchError(f"conductor mismatch: {vs[0].n} vs {z.n}")
        forms = self._forms
        if forms is None:
            forms = self._forms = tuple(
                _edge_form(p, q) for p, q in zip(vs, vs[1:] + vs[:1]))
        rows, const, _ = forms[i]
        den = z.den
        acc = [den * c for c in const]
        for a, row in zip(z.num, rows):
            if a:
                for k, r in row:
                    acc[k] += a * r
        return acc

    def edge_sign(self, i, z):
        """Exact sign of cross(v[i+1] - v[i], z - v[i]); +1 left of edge i.

        One sign_of_real on the unreduced edge form product over denominator
        1 (the sign proof uses only that the numerators are integers).
        Negative i counts from the last edge.
        """
        return sign_of_real(_raw(z.n, tuple(self._edge_acc(i, z)), 1), _checked=True)

    def edge_value(self, i, z):
        """cross(v[i+1] - v[i], z - v[i]) / sin(2*pi/n) as an exact real
        field element: the value of edge i's left half-plane at z."""
        acc = self._edge_acc(i, z)
        return _reduced(z.n, acc, self._forms[i][2] * z.den)

    def edge_halfplanes(self):
        """Per edge i, the half-planes strictly left of v[i] -> v[i+1] and
        strictly left of v[i+1] -> v[i] (``halfplane_left_of``), built once."""
        hps = self._halfplanes
        if hps is None:
            vs = self.vertices
            hps = self._halfplanes = tuple(
                (halfplane_left_of(p, q), halfplane_left_of(q, p))
                for p, q in zip(vs, vs[1:] + vs[:1]))
        return hps

    def in_wedge(self, a, z):
        """True iff z lies strictly inside the wedge of label a (1-based), so
        selects v_a off the singular set: strictly left of the edge leaving
        v_a and strictly right of the edge entering it (exact)."""
        return self.edge_sign(a - 1, z) > 0 and self.edge_sign(a - 2, z) < 0

    def locate(self, z):
        """"interior" / "boundary" / "exterior" of the closed polygon."""
        on_edge = False
        for i in range(len(self.vertices)):
            s = self.edge_sign(i, z)
            if s < 0:
                return "exterior"
            if s == 0:
                on_edge = True
        return "boundary" if on_edge else "interior"

    def contains(self, z):
        return self.locate(z) != "exterior"

    def translated(self, d):
        return ConvexPolygon([v + d for v in self.vertices], validate=False)

    def mapped(self, f):
        """Image under an orientation-preserving affine map f (unvalidated)."""
        return ConvexPolygon([f(v) for v in self.vertices], validate=False)

    def canonical_key(self):
        """Rotation-invariant vertex key; equal keys <=> equal polygons."""
        k = self._key
        if k is None:
            raw = [(v.n, v.num, v.den) for v in self.vertices]
            best = min(range(len(raw)), key=lambda i: raw[i:] + raw[:i])
            k = tuple(raw[best:] + raw[:best])
            self._key = k
        return k

    def __eq__(self, other):
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def float_vertices(self):
        fv = self._float
        if fv is None:
            fv = [point_xy(v) for v in self.vertices]
            self._float = fv
        return fv

    def float_extent(self):
        """V + 1, V the largest |coordinate| among ``float_vertices()``, built
        once.  Each float vertex coordinate is within 1.01 u (V + 1) of the
        true one, u = 2^-53: ``point_xy`` at 60 bits gives 2^-60 + u (1 + 2u) V,
        since the exact midpoint it rounds is at most (1 + 2u) V in size, and
        2^-60 < 0.008 u.
        ``dynamics.select_vertex``'s margin is built on this bound.
        """
        e = self._extent
        if e is None:
            e = self._extent = 1.0 + max(abs(c) for xy in self.float_vertices() for c in xy)
        return e

    def float_wedges(self):
        """Orders of the float wedge rows (a, *v_a, *v_(a+1), *v_(a-1)), built
        once: orders[0] by label; orders[a] from label a + (m-1)//2, opposite
        v_a, alternating outwards, where an orbit's next label usually is."""
        fw = self._wedges
        if fw is None:
            fv = self.float_vertices()
            m = len(fv)
            rows = tuple((a + 1, *fv[a], *fv[(a + 1) % m], *fv[a - 1]) for a in range(m))
            h = (m - 1) // 2
            offsets = sorted(range(-h, m - h), key=lambda s: (abs(s), -s))  # 0, 1, -1, 2, ...
            fw = self._wedges = (rows,) + tuple(
                tuple(rows[(a + h + s) % m] for s in offsets) for a in range(m))
        return fw

    def side_lengths_sq(self):
        return [norm_sq(q - p) for p, q in self.edges()]

    def is_regular(self):
        """True when all sides and all turning angles agree exactly."""
        vs = self.vertices
        m = len(vs)
        ds = [vs[(i + 1) % m] - vs[i] for i in range(m)]
        s0 = norm_sq(ds[0])
        c0 = cross_scaled(ds[0], ds[1])
        d0 = dot_part(ds[0], ds[1])
        for i in range(1, m):
            if norm_sq(ds[i]) != s0:
                return False
            if cross_scaled(ds[i], ds[(i + 1) % m]) != c0:
                return False
            if dot_part(ds[i], ds[(i + 1) % m]) != d0:
                return False
        return True

    def serialize(self):
        return " ".join(v.serialize() for v in self.vertices)

    @classmethod
    def parse(cls, text):
        return cls([CycloNum.parse(p) for p in text.split()], validate=False)


def regular_ngon(n):
    """Regular n-gon with vertices zeta_n^0 .. zeta_n^(n-1), labels 1..n."""
    if n < 3:
        raise GeometryError("need n >= 3")
    return ConvexPolygon([CycloNum.zeta(n, k) for k in range(n)], validate=False)


@dataclass(frozen=True)
class HalfPlane:
    """{z : a*x + b*ytilde + c > 0}.

    a, b, c are real field elements in (x, ytilde) coordinates.
    """

    a: CycloNum
    b: CycloNum
    c: CycloNum

    def __post_init__(self):
        if self.a.is_zero() and self.b.is_zero():
            raise GeometryError("half-plane normal must be nonzero")

    def value(self, z):
        return self.a * real_part(z) + self.b * imag_scaled(z) + self.c

    def side(self, z):
        return sign_of_real(self.value(z), _checked=True)


def halfplane_left_of(p, q):
    """Half-plane strictly left of the directed line p -> q.

    Its value functional at z equals cross(q - p, z - p) / sin(2*pi/n).
    """
    d = q - p
    dc = d.conj()
    a = imag_scaled(dc)
    b = real_part(d)
    c = -(a * real_part(p) + b * imag_scaled(p))
    return HalfPlane(a, b, c)


@dataclass(frozen=True)
class RegionResult:
    """Outcome of a half-plane intersection."""

    kind: str  # "polygon" | "empty" | "lower_dimensional" | "unbounded"
    polygon: ConvexPolygon | None = None


def _clip(pairs, hp):
    """Sutherland-Hodgman clip of a convex CCW chain of (x, ytilde) pairs by
    the closed half-plane."""
    out = []
    m = len(pairs)
    a, b, c = hp.a, hp.b, hp.c
    vals = [a * x + b * t + c for x, t in pairs]
    sides = [sign_of_real(v, _checked=True) for v in vals]
    for i in range(m):
        j = (i + 1) % m
        sc, sn = sides[i], sides[j]
        if sc >= 0:
            out.append(pairs[i])
        if (sc > 0 and sn < 0) or (sc < 0 and sn > 0):
            # boundary crossing: cur + s*(nxt - cur) with s = f(cur)/(f(cur)-f(nxt))
            s = vals[i] / (vals[i] - vals[j])
            (x0, t0), (x1, t1) = pairs[i], pairs[j]
            out.append((x0 + (x1 - x0) * s, t0 + (t1 - t0) * s))
    return out


def _auto_half_width(constraints):
    worst = 4.0
    for hp in constraints:
        av, bv, cv = (x.to_complex().real for x in (hp.a, hp.b, hp.c))
        scale = math.hypot(av, bv)
        if scale > 0:
            worst = max(worst, abs(cv) / scale)
    return Fraction(int(4 * worst) + 4)


def intersect_halfplanes(constraints, half_width=None):
    """Exact intersection of half-planes, clipped against a large box.

    Clipping works on (x, ytilde) pairs, the coordinates the half-planes
    are written in; the pairs become points only at the end.  Distinct
    half-planes clip in the given order, except that one is skipped when an
    already clipped half-plane with the identical normal (a, b) has an
    offset at most its own (parallel normals of different lengths both
    clip; periodic.code_constraints emits none).  Returns a RegionResult;
    "unbounded" means the true intersection was truncated by the box (some
    output vertex lies on it).  Each half-plane is clipped as closed
    (vertices on boundary lines are kept); interior membership tests handle
    strictness.

    No cleanup follows the clips: each chain is strictly convex with no
    repeated point, or has at most 2 distinct points.  The box is strictly
    convex.  A clip of a strictly convex chain keeps its vertices on the
    closed side, extreme points of the clipped region, and adds a crossing
    point only strictly inside an edge whose ends lie strictly on opposite
    sides: no vertex, no other edge's crossing, and extreme too, as the edge
    line meets the clip line transversally there.  The polygon meets the clip
    line in one segment, and only its 2 ends can be output points, adjacent
    in the output.  So the output lists distinct extreme points of the region
    in boundary order.  A chain of at most 2 distinct points lies on one
    segment, which meets the clip line in at most one point, added only where
    an old point is dropped.  Fewer than 3 distinct points is
    "lower_dimensional".
    """
    # a second clip by the same closed half-plane changes nothing
    constraints = list(dict.fromkeys(constraints))
    if not constraints:
        return RegionResult("unbounded", None)
    n = constraints[0].a.n
    if half_width is None:
        half_width = _auto_half_width(constraints)
    w = CycloNum.from_rational(n, Fraction(half_width))
    pairs = [(-w, -w), (w, -w), (w, w), (-w, w)]
    # least clipped offset per normal.  A skipped half-plane is implied by
    # that tighter clip, which every chain vertex satisfies; later clips
    # keep vertices or add convex combinations of them, so they satisfy it
    # too and the skipped _clip would return the chain unchanged.
    tightest = {}
    for hp in constraints:
        key = (hp.a, hp.b)
        least = tightest.get(key)
        if least is not None and sign_of_real(hp.c - least, _checked=True) >= 0:
            continue
        tightest[key] = hp.c
        pairs = _clip(pairs, hp)
        if not pairs:
            return RegionResult("empty", None)
    if len(set(pairs)) < 3:
        return RegionResult("lower_dimensional", None)
    half_eta = _half_eta(n)
    poly = ConvexPolygon([x + half_eta * t for x, t in pairs], validate=False)
    for x, t in pairs:
        if x == w or x == -w or t == w or t == -w:
            return RegionResult("unbounded", poly)
    return RegionResult("polygon", poly)


# -- approximate metric utilities -------------------------------------------


def _pt_seg_dist(p, a, b):
    px, py = p
    ax, ay = a
    bx, by = b
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return math.hypot(wx, wy)
    t = (wx * vx + wy * vy) / vv
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(wx - t * vx, wy - t * vy)


def _pt_poly_dist(p, poly_pts):
    m = len(poly_pts)
    inside = True
    for i in range(m):
        ax, ay = poly_pts[i]
        bx, by = poly_pts[(i + 1) % m]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < 0.0:
            inside = False
            break
    if inside:
        return 0.0
    return min(
        _pt_seg_dist(p, poly_pts[i], poly_pts[(i + 1) % m]) for i in range(m)
    )


def hausdorff_distance(A, B):
    """Hausdorff distance between convex polygons, in floats.

    For convex sets the directed distance is attained at a vertex of the
    source polygon, so vertex-to-polygon projections are exhaustive; the
    only error is floating-point evaluation of certified coordinates.
    """
    if A is None or B is None:
        raise GeometryError("hausdorff_distance needs nonempty polygons")
    pa = A.float_vertices()
    pb = B.float_vertices()
    d1 = max(_pt_poly_dist(p, pb) for p in pa)
    d2 = max(_pt_poly_dist(p, pa) for p in pb)
    return max(d1, d2)
