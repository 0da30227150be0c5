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

Every proved float filter reads one float image per field element
(``CycloNum.float_image``).  Each ConvexPolygon builds integer edge forms
once: for z = num/den, an integer matrix-vector product of num and den with
the form of edge i gives the numerators of a known positive multiple of
cross(v[i+1] - v[i], z - v[i]) / sin(2*pi/n).  periodic.code_constraints
builds the offsets of pulled-back edge half-planes from these integer rows.

Half-plane intersection clips (x, ytilde) pairs of real field elements
directly, and the pairs become points x + i*sin(2*pi/n)*ytilde once, at the
end.  Clipping is a filtered predicate, like vertex selection: each chain
vertex carries floats of its coordinates with a proved error bound, and the
side of a*x + b*ytilde + c is read from floats whenever it clears the bound
proved at ``_line``; only a vertex within that bound, in practice one lying
on the clip line, gets the exact value and its sign.  A crossing is the
meet of the clip line with the line of the crossed edge, which each vertex
carries.  Its floats come from one float 2x2 solve on the floats of the two
lines (bound proved at ``_meet_float``); its exact coordinates are built
only when a side test abstains on it or it survives the last clip, through
factors cached per pair of normals, so no crossing takes a field inverse.
``intersect_halfplanes`` clips every half-plane it is given;
periodic.code_region hands it only those that no already clipped one with
the same normal implies, decided on floats of the offsets formed from
integers and the floats of the edge forms each polygon caches
(``form_floats``), so a tile of a long code, cut by hundreds of pulled-back
half-planes, needs a few dozen clips and most offsets are never built
exactly.  Every sign decided from floats is the exact sign, so the vertices
are those of exact clipping, which needs no cleanup pass afterwards (proof
at ``intersect_halfplanes``).  The polygon keeps its clip lines, and the
side of a point on each edge (``ConvexPolygon.edge_sides``) is read from
them with the same filter: point location (``ConvexPolygon.locate``) and
vertex selection wherever its own float filter abstains
(``dynamics.select_vertex``) both take it.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .errors import ConductorMismatchError, GeometryError
from .field import _U, CycloNum, _apply, _raw, approximate, context, sign_of_real
from .record import FrozenRecord

# A plane point is just a CycloNum used as a complex coordinate.
ExactPoint = CycloNum

_HALF = Fraction(1, 2)

# Every float error bound below is a sum of products of nonnegative floats,
# each a true bound, rounded at most k times on the way (k = 12 here, and
# 2 phi + 6 in periodic._offset_float): the computed value is at least
# (1 - u)^k of the exact one, u = 2^-53, so for any k below 2^40, 1.01 times
# it (one more rounding) is at least the exact one.
_SLACK = 1.01


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
    t = Fraction(round(float(y) / context(n).float_sine() * (1 << 20)), 1 << 20)
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

    Integer edge forms, built once per polygon on first use
    (``edge_forms``), give the offsets of pulled-back edge half-planes
    (``periodic.code_constraints``), whose floats come from the floats of
    the forms (``form_floats``); the 2n edge half-planes are cached next to
    them (``edge_halfplanes``).  The side of a point on each edge is read
    from one clip line per edge (``edge_sides``, ``edge_lines``).
    """

    __slots__ = ("vertices", "_key", "_float", "_extent", "_forms", "_form_floats",
                 "_halfplanes", "_lines", "_wedges")

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
        self._form_floats = None
        self._halfplanes = None
        self._lines = None
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

    def edge_forms(self):
        """Per edge i, the integer form (rows, const, D) of v[i] -> v[i+1]
        (``_edge_form``), built once."""
        forms = self._forms
        if forms is None:
            vs = self.vertices
            forms = self._forms = tuple(
                _edge_form(p, q) for p, q in zip(vs, vs[1:] + vs[:1]))
        return forms

    def form_floats(self):
        """Per edge i, floats of the real values of its integer form
        (``edge_forms``), built once on first use: (fc, wc, fr, wr), with fc
        the float of const and fr[j] that of row j, each read as a real
        element over denominator 1 (``CycloNum.float_image``, error bound
        e), and with the weight w = e + (phi + 6) u |f| of each,
        u = 2^-53: the term per input of ``periodic._offset_float``'s error
        bound."""
        ff = self._form_floats
        if ff is None:
            n = self.vertices[0].n
            phi = context(n).phi
            k = (phi + 6) * _U
            ff = []
            for rows, const, _ in self.edge_forms():
                dense = []
                for row in rows:
                    v = [0] * phi
                    for j, x in row:
                        v[j] = x
                    dense.append(tuple(v))
                images = [_raw(n, v, 1).float_image() for v in (const, *dense)]
                fs = tuple(f for f, _, _ in images)
                ws = tuple(e + k * abs(f) for f, _, e in images)
                ff.append((fs[0], ws[0], fs[1:], ws[1:]))
            ff = self._form_floats = tuple(ff)
        return ff

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

    def edge_lines(self):
        """Per edge i, a clip line (``_line``) whose boundary holds v[i] and
        v[i+1] and whose open side is the left of v[i] -> v[i+1]: the lines
        that cut out a polygon of ``intersect_halfplanes``, else the first
        of each ``edge_halfplanes()`` pair, built once."""
        lines = self._lines
        if lines is None:
            lines = self._lines = tuple(_line(hp) for hp, _ in self.edge_halfplanes())
        return lines

    def edge_sides(self, z):
        """The exact sign of cross(v[i+1] - v[i], z - v[i]) for each edge i
        in turn, +1 left of the edge: the side of z on each edge line
        (``edge_lines``), from floats where they clear ``_line``'s bound,
        else exact (``_side``).  A lazy iterator, so a caller may stop at
        the side it needs; ConductorMismatchError at once for a point of
        another conductor."""
        n = self.vertices[0].n
        if z.n != n:
            raise ConductorMismatchError(f"conductor mismatch: {n} vs {z.n}")
        v = _vertex(real_part(z), imag_scaled(z), None)
        return (_side(line, v) for line in self.edge_lines())

    def locate(self, z):
        """"interior" / "boundary" / "exterior" of the closed polygon, from
        the side of z on each edge (``edge_sides``)."""
        on_edge = False
        for s in self.edge_sides(z):
            if s < 0:
                return "exterior"
            if s == 0:
                on_edge = True
        return "boundary" if on_edge else "interior"

    def contains(self, z):
        return self.locate(z) != "exterior"

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


class HalfPlane(FrozenRecord):
    """{z : a*x + b*ytilde + c > 0}.

    a, b, c are real field elements in (x, ytilde) coordinates.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        if a.is_zero() and b.is_zero():
            raise GeometryError("half-plane normal must be nonzero")
        self._set(a, b, c)


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


class RegionResult(FrozenRecord):
    """Outcome of a half-plane intersection, of ``kind`` "polygon", "empty",
    "lower_dimensional" or "unbounded"; with a polygon, the half-width of
    the box [-w, w]^2 in (x, ytilde) that it was clipped to."""

    __slots__ = ("kind", "polygon", "half_width")

    def __init__(self, kind, polygon=None, half_width=None):
        self._set(kind, polygon, half_width)


@lru_cache(maxsize=1024)
def _inverse(d):
    return d.inverse()


@lru_cache(maxsize=1024)
def _meet_factors(a1, b1, a2, b2):
    """(b1/D, b2/D, a1/D, a2/D) for D = a1*b2 - a2*b1 != 0, per pair of
    normals; pairs with the same D share its inverse."""
    inv = _inverse(a1 * b2 - a2 * b1)
    return b1 * inv, b2 * inv, a1 * inv, a2 * inv


def _meet(l1, l2):
    """The exact (x, ytilde) where the boundary lines of two half-planes with
    non-parallel normals meet: x = (b1*c2 - b2*c1)/D and
    ytilde = (a2*c1 - a1*c2)/D, D = a1*b2 - a2*b1."""
    f1, f2, f3, f4 = _meet_factors(l1.a, l1.b, l2.a, l2.b)
    c1, c2 = l1.c, l2.c
    return c2 * f1 - c1 * f2, c1 * f4 - c2 * f3


def _line(hp):
    """(hp, fa, fb, fc, k1, k2, k0, ea, eb, ec): a clip line, built once per
    half-plane: hp, the floats of its a, b, c, the constants of a proved
    bound on the error of its float value, and the error bounds of the
    three floats.

    With (fa, ea), (fb, eb), (fc, ec) the real floats of a, b, c and their
    error bounds (``CycloNum.float_image``), the float v = fa*fx + fb*ft + fc
    at floats fx, ft within e of a point's coordinates x, ytilde,
    r = max(|fx|, |ft|), is within

        M = k1 r + k2 e + k0,   k1 = 4u g + ea + eb,   k2 = g + ea + eb,
        k0 = 4u |fc| + ec,      g = |fa| + |fb|,       u = 2^-53,

    of the exact value a*x + b*ytilde + c.  (a) Its two products and two sums
    err by at most gamma_3 (|fa fx| + |fb ft| + |fc|) <= 4u (g r + |fc|),
    gamma_3 = 3u / (1 - 3u) (Higham, Accuracy and Stability of Numerical
    Algorithms, (3.5)).  (b) Moving the inputs to the exact ones moves
    fa*fx by at most |fa| e + ea (r + e), as |x| <= r + e, and likewise
    fb*ft; it moves fc by at most ec.  Gradual underflow adds at most
    3 * 2^-1075, far below the 1 % slack on ec >= E.  The bound is computed
    as 1.01 M (``_SLACK``): v above it is a positive value, below minus it a
    negative one, and anything else, including a bound that overflowed or is
    NaN, decides nothing.  ``_side`` reads it at the error e of a chain
    vertex or a located point; ``periodic.CaptureRegion.holds`` reads it at
    e = 0, for a float point that is itself the point tested.
    """
    fa, _, ea = hp.a.float_image()
    fb, _, eb = hp.b.float_image()
    fc, _, ec = hp.c.float_image()
    g = abs(fa) + abs(fb)
    return hp, fa, fb, fc, 4 * _U * g + ea + eb, g + ea + eb, 4 * _U * abs(fc) + ec, ea, eb, ec


def _vertex(x, t, line):
    """A chain vertex [x, ytilde, fx, ft, r, e, line, meet] with exact
    coordinates: their real floats (``CycloNum.float_image``), r =
    max(|fx|, |ft|), e the larger of their error bounds, the clip line
    (``_line``) whose boundary holds this vertex and the next one of the
    chain, and meet None."""
    fx, _, ex = x.float_image()
    ft, _, et = t.float_image()
    return [x, t, fx, ft, max(abs(fx), abs(ft)), max(ex, et), line, None]


def _meet_float(l1, l2):
    """(fx, ft, r, e): floats of the meet of two clip lines' boundaries
    (``_meet``), r = max(|fx|, |ft|), and a bound e on the error of both;
    None where no bound forms: |fD| not above its error, or a float or the
    bound not finite (an infinite offset).

    With fa_i, fb_i, fc_i the floats of line i's a, b, c, within ea_i,
    eb_i, ec_i of them (``_line``), the computed fD = fa1 fb2 - fa2 fb1,
    fNx = fb1 fc2 - fb2 fc1 and fNt = fa2 fc1 - fa1 fc2 are the floats of
    D, Nx and Nt, and fx = fNx / fD, ft = fNt / fD those of x = Nx / D and
    ytilde = Nt / D.  Claim, u = 2^-53, g_i = |fa_i| + |fb_i|,
    h_i = ea_i + eb_i, C_i = |fc_i| + ec_i:

        |fD - D| <= ED = 3u (|fa1 fb2| + |fa2 fb1|)
                         + ea1 (|fb2| + eb2) + |fa1| eb2 + ea2 (|fb1| + eb1) + |fa2| eb1,
        |fNx - Nx|, |fNt - Nt| <= EN = 3u (g1 |fc2| + g2 |fc1|)
                         + h1 C2 + g1 ec2 + h2 C1 + g2 ec1,

    and, when |fD| > ED, |fx - x| and |ft - ytilde| are at most
    (EN + r (ED + u |fD|)) / (|fD| - ED), up to a factor 1 + 2u.
    (a) A computed p q - r s errs by at most gamma_2 (|p q| + |r s|),
    gamma_2 = 2u / (1 - 2u) < 3u, from the exact value at its float inputs
    (Higham, Accuracy and Stability of Numerical Algorithms, (3.5)); moving
    the inputs to the exact ones moves p q by at most ep (|q| + eq) + |p| eq.
    Each term of the two numerators' bounds is at most its term of EN.
    (b) |D| >= |fD| - ED > 0, and with g = |fNx / fD| <= |fx| / (1 - u),
    fNx / fD - Nx / D = (fNx - Nx) / D + fNx (D - fD) / (fD D) is at most
    (EN + g ED) / (|fD| - ED), and the division's rounding adds u g, at
    most u g |fD| / (|fD| - ED).  (c) ED and e are computed as 1.01 times
    these sums and quotient (``_SLACK``): their few roundings, of
    nonnegative terms, of the difference |fD| - ED of floats, which keeps
    its sign and errs by at most a factor 1 + u, and of the two quotients,
    lose far less than 1 %.  (d) Underflow adds at most 2^-1075 per
    product, far below EN and ED, which are at least E^2 > 2^-100, as every
    error from ``CycloNum.float_image`` is at least E = ``to_complex_error()``
    > 2^-50; the quotients fx, ft and e's own quotient may each lose
    2^-1075 more, which the added 2^-1073 covers.
    """
    _, fa1, fb1, fc1, _, _, _, ea1, eb1, ec1 = l1
    _, fa2, fb2, fc2, _, _, _, ea2, eb2, ec2 = l2
    fD = fa1 * fb2 - fa2 * fb1
    ED = _SLACK * (3 * _U * (abs(fa1 * fb2) + abs(fa2 * fb1)) + ea1 * (abs(fb2) + eb2)
                   + abs(fa1) * eb2 + ea2 * (abs(fb1) + eb1) + abs(fa2) * eb1)
    den = abs(fD) - ED
    if not den > 0:  # also an infinite or NaN bound
        return None
    g1, g2 = abs(fa1) + abs(fb1), abs(fa2) + abs(fb2)
    EN = (3 * _U * (g1 * abs(fc2) + g2 * abs(fc1)) + (ea1 + eb1) * (abs(fc2) + ec2)
          + g1 * ec2 + (ea2 + eb2) * (abs(fc1) + ec1) + g2 * ec1)
    fx = (fb1 * fc2 - fb2 * fc1) / fD
    ft = (fa2 * fc1 - fa1 * fc2) / fD
    r = max(abs(fx), abs(ft))
    e = _SLACK * (EN + r * (ED + _U * abs(fD))) / den + 2.0**-1073
    if not r + e < math.inf:
        return None
    return fx, ft, r, e


def _exact(v):
    """The exact (x, ytilde) of chain vertex v: a crossing's is built by
    ``_meet`` of its two lines on first use, and kept."""
    if v[0] is None:
        l1, l2 = v[7]
        v[0], v[1] = _meet(l1[0], l2[0])
    return v[0], v[1]


def _box(w):
    """The chain of the box [-w, w]^2, each side a clip line."""
    n = w.n
    one, zero = CycloNum.one(n), CycloNum.zero(n)
    # side i runs from corner i to corner i + 1: y >= -w, x <= w, y <= w, x >= -w
    sides = (HalfPlane(zero, one, w), HalfPlane(-one, zero, w),
             HalfPlane(zero, -one, w), HalfPlane(one, zero, w))
    corners = ((-w, -w), (w, -w), (w, w), (-w, w))
    return [_vertex(x, t, _line(side)) for (x, t), side in zip(corners, sides)]


def _side(line, v):
    """Sign of the clip line's value at chain vertex v: from the floats when
    they clear ``_line``'s bound at v's error e, else exact."""
    hp, fa, fb, fc, k1, k2, k0 = line[:7]
    s = fa * v[2] + fb * v[3] + fc
    bound = _SLACK * (k1 * v[4] + k2 * v[5] + k0)
    if s > bound:
        return 1
    if s < -bound:
        return -1
    x, t = _exact(v)
    return sign_of_real(hp.a * x + hp.b * t + hp.c, _checked=True)


def _clip(chain, hp):
    """Sutherland-Hodgman clip of a convex CCW chain of ``_vertex`` lists by
    the closed half-plane hp.

    Side test.  A vertex's side is read from its floats when they clear the
    bound of ``_line`` at the vertex's error e; otherwise its exact
    value decides (``_side``).

    Crossings.  A vertex is kept when its side is >= 0, and a point is added
    on each edge whose ends lie strictly on opposite sides.  That point is
    the meet of the edge's line and hp's line (``_meet``): the two lines are
    transversal, since the ends lie strictly apart, so it is the one point
    p + s*(q - p), s = f(p)/(f(p) - f(q)), of exact Sutherland-Hodgman.
    It starts as floats with a proved bound (``_meet_float``), and its
    exact coordinates are built only when a side test abstains on it or it
    survives the last clip (``_exact``); where no bound forms they are
    built at once.  Every side decided from floats is the exact side, so
    the clips, their vertices and their order are those of exact clipping.
    Each output vertex carries the line to its successor in the output: a
    kept vertex keeps its edge's line, since its successor is its old one or
    a crossing on that edge, unless it lies on hp's line with a dropped
    successor; that vertex, and an added point where the chain leaves the
    half-plane, take hp, since the next output point is the next crossing or
    kept vertex on hp's line; an added point where the chain enters keeps
    the crossed edge's line, which runs on to the next kept vertex.
    """
    line = _line(hp)
    sides = [_side(line, v) for v in chain]
    out = []
    m = len(chain)
    for i, cur in enumerate(chain):
        sc, sn = sides[i], sides[(i + 1) % m]
        if sc >= 0:
            out.append(cur if sc > 0 or sn >= 0 else cur[:6] + [line, cur[7]])
        if sc * sn < 0:
            edge = cur[6]
            succ = line if sc > 0 else edge
            f = _meet_float(edge, line)
            if f is None:
                out.append(_vertex(*_meet(edge[0], hp), succ))
            else:
                out.append([None, None, *f, succ, (edge, line)])
    return out


def _half_width(most):
    """int(4 W) + 4 as a Fraction, W the larger of 4 and every cv / |(a, b)|
    in floats, cv = most[(a, b)]; OverflowError when 4 W is infinite.

    Every step is monotone in each cv: correctly rounded division by a
    positive float, max, the exact scaling by 4 and int.  So cv at most
    (at least) the largest |c| float per normal gives an int(4 W) at most
    (at least) that of those largest floats.
    """
    worst = 4.0
    for (a, b), cv in most.items():
        scale = math.hypot(a.to_complex().real, b.to_complex().real)
        if scale > 0:
            worst = max(worst, cv / scale)
    return Fraction(int(4 * worst) + 4)


def _auto_half_width(constraints):
    """int(4 W) + 4 with W the larger of 4 and every |c| / |(a, b)| in floats,
    |c| the float ``abs(c.to_complex().real)``.

    Only the largest |c| per normal is divided (``_half_width``).
    ``periodic._clipped`` gives the same Fraction for the half-planes of
    ``code_constraints`` from bounded floats of their offsets, and passes
    here only the offsets that its bound cannot separate from a normal's
    largest.  GeometryError when an offset or the box is past the float
    range, where no float box exists and the caller must pass one.
    """
    most = {}
    try:
        for hp in constraints:
            key = (hp.a, hp.b)
            cv = abs(hp.c.to_complex().real)
            if not cv < math.inf:  # a sum of finite terms overflowed, or NaN
                raise OverflowError
            if cv > most.get(key, -1.0):
                most[key] = cv
        return _half_width(most)
    except OverflowError:
        raise GeometryError(
            "a half-plane offset exceeds the float range: pass half_width") from None


def intersect_halfplanes(constraints, half_width=None):
    """Exact intersection of half-planes, clipped against a large box.

    Clipping works on (x, ytilde) pairs, the coordinates the half-planes
    are written in; the pairs become points only at the end.  Every
    half-plane clips, in the given order; ``periodic.code_region`` hands
    over only those that no already clipped one implies.  Returns a
    RegionResult; "unbounded" means the true intersection was truncated by
    the box (some output vertex lies on it).  Each half-plane is clipped as
    closed (vertices on boundary lines are kept); interior membership tests
    handle strictness.

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

    The polygon keeps the clip line of each edge (``edge_lines``): each
    output vertex's line holds it and the next one (``_clip``), and the
    polygon lies on the line's closed side, so its open side is the left of
    the edge.
    """
    constraints = tuple(constraints)  # any iterable; read twice
    if not constraints:
        return RegionResult("unbounded", None)
    n = constraints[0].a.n
    if half_width is None:
        half_width = _auto_half_width(constraints)
    half_width = Fraction(half_width)
    w = CycloNum.from_rational(n, half_width)
    chain = _box(w)
    for hp in constraints:
        chain = _clip(chain, hp)
        if not chain:
            return RegionResult("empty", None)
    pairs = [_exact(v) for v in chain]
    if len(set(pairs)) < 3:
        return RegionResult("lower_dimensional", None)
    half_eta = _half_eta(n)
    poly = ConvexPolygon([x + half_eta * t for x, t in pairs], validate=False)
    poly._lines = tuple(v[6] for v in chain)
    for x, t in pairs:
        if x == w or x == -w or t == w or t == -w:
            return RegionResult("unbounded", poly, half_width)
    return RegionResult("polygon", poly, half_width)


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
