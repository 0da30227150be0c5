"""The outer billiards map with contraction: vertex selection, the orbit
loop and symbolic coding.

The map sends x to (1 + lam) * v - lam * x, where v is the unique vertex of P
such that P lies on the left of the ray from x through v; lam = 1 is the
uncontracted map.  The singular set S is the union of rays extending the
sides of P, where two vertices qualify and the choice is ambiguous.

Vertex selection is a filtered predicate: the float orientations of the
polygon's cached wedge table, tested against a margin proved from the error
of the float point (``_select_margin``), certify a vertex without any exact
arithmetic; only a point the filter cannot decide reads its exact side of
each edge (``ConvexPolygon.edge_sides``), as point location does.
``iterate`` is the one loop that selects and reflects along an orbit
(``step``, ``periodic.code_endpoint`` and ``atlas.scr_region`` read its
record); it carries a float image of each point with a running error
bound, re-seeded from the exact point only where the filter abstains.  A
step is one integer combination of the numerators of v and x, reduced by a
gcd that divides a small integer.
"""

import math
from fractions import Fraction

from .errors import GeometryError, ObcError, StepDomainError
from .field import _U, _raw, sign_of_real  # noqa: F401, perfbench/selftest.py checks it
from .geometry import point_xy
from .record import FrozenRecord, Record


class Selection(FrozenRecord):
    """``kind`` is "vertex" (with its ``label``), "singular" or "inside"."""

    __slots__ = ("kind", "label", "candidates")

    def __init__(self, kind, label=None, candidates=()):
        self._set(kind, label, candidates)


# The screen margin of the float orbits (``atlas._float_periodic_code``,
# ``periodic.captured_word``), which stay screens: codes they propose are
# certified exactly later.
_FLOAT_MARGIN = 1e-12


def float_select(wedges, x, y, margin=_FLOAT_MARGIN):
    """The row (label, vx, vy, ...) of the wedge that holds the float point
    (x, y) with both orientations above ``margin``, else None.

    ``wedges`` is one order of the polygon's ``float_wedges()``.  The open
    wedges are disjoint, so at most one row passes: the order decides only
    how soon it is found, never the answer.  Under select_vertex's proved
    margin a row is a certificate; under the default _FLOAT_MARGIN it is a
    screen, whose codes are certified exactly later.
    """
    for row in wedges:
        _, vx, vy, nx, ny, px, py = row
        dx, dy = vx - x, vy - y
        if (dx * (ny - y) - dy * (nx - x) > margin
                and dx * (py - y) - dy * (px - x) > margin):
            return row
    return None


def select_vertex(P, x):
    """Which vertex x reflects on: a label, or Singular / Inside.

    A point strictly inside a vertex wedge selects that vertex: strictly
    left of the edge leaving it and strictly right of the edge entering it.
    That certificate also proves x is outside the closed polygon and off
    the singular set.  The float orientations of the wedge table at
    ``x.float_image()`` prove it when they clear the margin of
    ``_select_margin``; any other point, on or near the singular set or
    inside P, is decided by its exact side of each edge.  A point of
    another conductor skips the floats, and the exact path refuses it.
    """
    if x.n == P.vertices[0].n:
        fx, fy, e = x.float_image()
        w = max(abs(fx), abs(fy)) + P.float_extent()
        row = float_select(P.float_wedges()[0], fx, fy, _select_margin(w, e))
        if row is not None:
            return Selection("vertex", row[0])
    return _select_exhaustive(P, x)


def _select_margin(w, e):
    """M = (16 u w + 4.1 e) w + 2.1 e^2, u = 2^-53, a proved bound on the
    error of both orientations that float_select evaluates at a float point
    f, so an orientation above it is positive exactly.  Here e bounds the
    error of each coordinate of f, and w = fl(|f| + V + 1) with |f| =
    max(|fx|, |fy|) and V + 1 = ``P.float_extent()``.  math.inf, which
    certifies nothing, when w is not below 2^502 (see the end).

    ``select_vertex`` passes the error e of ``x.float_image()``;
    ``iterate`` passes the error it carries along the orbit.  So this one
    proof serves both.

    Proof.  Let X = |f| + V + 1, exactly; w >= (1 - u)^2 X after the two
    roundings that make V + 1 and w.  Each float vertex coordinate is
    within e_v = 1.01 u X of the true one (``ConvexPolygon.float_extent``)
    and at most V in size.  Each orientation is (v - f) x (n - f) for two
    wedge vertices, in two float subtractions per factor, two products and
    one subtraction, so

    (a) at the float inputs it errs by at most gamma_4 (|A| + |B|) <=
        2 gamma_4 X^2, gamma_m = m u / (1 - m u) (Higham, Accuracy and
        Stability of Numerical Algorithms, (3.5)), A and B its two products
        of differences at most X - 1 in size;
    (b) moving the three inputs to the true points moves a x b, with |a|,
        |b| <= X - 1 in the sup norm, by at most 2 (|a| s + s |b| + s^2)
        <= 4 s X + 2 s^2 for the sup error s = e + e_v of each difference.

    In all, at most (2 gamma_4 + 4.04 u + 2.05 u^2) X^2 + (4 + 4.04 u) e X
    + 2 e^2 <= 12.05 u w^2 + 4.01 e w + 2 e^2, by X <= (1 + 2.01 u) w.
    M evaluated in floats is at least (1 - u)^4 times its value, which
    exceeds that.  Gradual underflow adds at most a few 2^-1075, far below
    the slack of 3.9 u w^2 >= 3.9 u.  The first orientation is (v_(a+1) -
    v_a) x (p - v_a), a positive multiple of edge a - 1's value at p, and
    the second is minus that of edge a - 2 (``edge_sides``, 0-based); both
    above M prove x strictly inside the wedge of v_a.  With w < 2^502 no
    difference or product overflows.  A NaN coordinate makes every
    orientation NaN, and an infinite or NaN w or e makes M so: no comparison
    passes either.
    """
    if not w < 2.0**502:
        return math.inf
    return (16 * _U * w + 4.1 * e) * w + 2.1 * e * e


def _select_exhaustive(P, x):
    # one exact side per edge; edge i runs from vertex i to vertex i + 1
    # (0-based).  Vertex i qualifies when P lies in the closed left
    # half-plane of the ray from x through it, i.e. (P convex) when both of
    # its neighbours do: s[i] >= 0 and s[i - 1] <= 0.
    m = len(P.vertices)
    s = list(P.edge_sides(x))
    if min(s) >= 0:
        return Selection("inside")
    cands = tuple(i + 1 for i in range(m) if s[i] >= 0 and s[i - 1] <= 0)
    if len(cands) == 1:
        return Selection("vertex", cands[0])
    if len(cands) == 2:
        return Selection("singular", None, cands)
    raise GeometryError(  # pragma: no cover - impossible for convex P
        f"vertex selection found {len(cands)} candidates"
    )


def step(P, lam, x):
    """One application of the map, (y, label) with y = (1 + lam) * v - lam *
    x exactly: the first step of ``iterate``.

    Raises StepDomainError for points inside P or on the singular set.
    """
    rec = iterate(P, lam, x, 1)
    if not rec.code:
        raise StepDomainError("inside" if rec.termination == "inside" else "singular")
    return rec.points[1], rec.code[0]


def reflect_contract(v, p, q, x):
    """(1 + p/q) v - (p/q) x, exactly: one integer combination of the
    numerators of v and x over the common denominator q * v.den * x.den,
    reduced by their gcd G, which divides p q v.den^2.

    So G = gcd(h, *num) with the small h = gcd(den, p q v.den^2), and each
    step of either gcd divides a large integer by a small one.  Proof that
    G divides p q B^2: write x = X / D in normal form, gcd(D, X_0, ...,
    X_(phi-1)) = 1, and v = A / B, so the numerators are N_k = (p + q) D A_k
    - p B X_k over q B D.  Take a prime r and let nu be r's exponent.  If
    nu(p B) < nu(D), r divides D, so some X_j is prime to r, and nu(N_j) =
    nu(p B), as the first term has at least nu(D) factors r.  Otherwise
    nu(q B D) <= nu(q B) + nu(p B).  Either way G, which divides N_j and
    q B D, has at most nu(p q B^2) factors r.
    """
    vd, xd = v.den, x.den
    a, b = (p + q) * xd, p * vd
    num = [a * vk - b * xk for vk, xk in zip(v.num, x.num)]
    den = q * vd * xd
    g = math.gcd(math.gcd(den, b * q * vd), *num)
    if g != 1:
        return _raw(x.n, tuple(c // g for c in num), den // g)
    return _raw(x.n, tuple(num), den)


class OrbitRecord(Record):
    """Recorded orbit with its code and termination reason.

    termination is "cap_reached", "exact_repeat" (with preperiod/period),
    "hit_singular" (with singular_step) or "inside" (start in the closed
    polygon).  code[i] is the label the i-th recorded point reflects on.
    """

    __slots__ = ("start", "lam", "points", "code", "termination", "preperiod", "period",
                 "singular_step")

    def __init__(self, start, lam, points=None, code=None, termination="cap_reached",
                 preperiod=None, period=None, singular_step=None):
        self._set(start, lam, [] if points is None else points, [] if code is None else code,
                  termination, preperiod, period, singular_step)

    def cycle_code(self):
        if self.termination != "exact_repeat":
            raise ValueError("orbit did not close up")
        return tuple(self.code[self.preperiod : self.preperiod + self.period])

    def prefix(self, k):
        """(labels, point) of the orbit's first k steps, read on around its
        cycle (``cycle_code``'s preperiod and period) if it closed sooner;
        None if it stopped short of k steps without closing."""
        code, points = self.code, self.points
        if k <= len(code):
            return tuple(code[:k]), points[k]
        if self.termination != "exact_repeat":
            return None
        pre, per = self.preperiod, self.period
        labels = code[:pre] + code[pre:] * ((k - pre) // per + 1)
        return tuple(labels[:k]), points[pre + (k - pre) % per]


# K of iterate's running error bound: 8.25 u exceeds the proved 8.03 u
# after the roundings that evaluate it.
_STEP_ERROR = 8.25 * _U


def iterate(P, lam, x, max_steps):
    """Iterate the map, recording points and code.

    Stops at max_steps, at an exact point repetition (hash on the normal
    form; no tolerances), on the singular set, or at once inside P.  Below
    lam = 1 the repeat check stops at the first point whose den is divisible
    by free = q L, for lam = p/q in lowest terms and L the lcm of the
    vertex dens: no later point repeats any point (proof at the end).

    Every point is exact, but its vertex is certified from a float image
    (fx, fy) carried along the orbit with a proved bound d on the error of
    each coordinate: ``float_select`` under ``_select_margin(w, d)``, after
    label a from ``orders[a]`` as the float orbits screen.  Only where that
    filter abstains does ``select_vertex`` decide, from the point's own
    float image and else its exact edge sides, and the image is then
    re-seeded from the exact point (``CycloNum.float_image``).  A start of
    another conductor gets no image, so ``select_vertex`` refuses it.
    Each step maps the image by f' = fl(fl(g v) - fl(l f)), with
    g = fl(1 + lam), l = fl(lam) and v the float vertex, and the bound by

        d' = fl(fl(L d) + fl(K w)),   L = fl(l (1 + 8u)),   K = 8.25 u,

    with w = fl(|f| + V + 1) as in ``_select_margin`` and u = 2^-53.  So d
    contracts to about K w / (1 - lam) when lam < 1 and grows by K w a step
    at lam = 1, until an abstention resets it.

    Proof that d' bounds the error of f' (Higham, Accuracy and Stability of
    Numerical Algorithms, Section 3.3, running error analysis).  Let z be
    the exact point, |f - z| <= d in each coordinate, F = |f|, and let
    V + 1 = ``P.float_extent()``, so the float vertex is at most V in size
    and within 1.01 u (V + 1) of the true vertex t.  The new exact point is
    (1 + lam) t - lam z, and per coordinate

    (a) the float evaluation errs by at most gamma_2 (g V + l F) <= (2 +
        7u) u (2 V + F) from g v - l f, since g <= 2 (1 + u) and l <= 1 + u;
    (b) |g v - (1 + lam) t| <= 2 u V + 2.02 u (V + 1), as |g - (1 + lam)|
        <= u (1 + lam) and lam <= 1;
    (c) |l f - lam z| <= u F + lam d.

    In all lam d + u ((8.02 + 14u) (V + 1) + (3 + 7u) F) <= lam d + 8.03 u
    (V + 1 + F).  The computed d' is at least (1 - u)^2 L d + (1 - u)^3 K
    (V + 1 + F), and (1 - u)^2 L >= lam (1 - u)^4 (1 + 8u) >= lam, as l >=
    lam (1 - u).  A rate below 2^-1022, whose float errs absolutely, and
    gradual underflow add under 2^-500 in all, since F and d are below
    2^502 wherever d is finite: a certified step has w < 2^502 and d < w
    (its orientations, at most 2.001 w^2, exceed 4.09 d w), and a fresh
    bound is below 2^501.  That is far below the slack of 0.2 u (V + 1).
    So every certified label is the exact one, and every point, code and
    termination is that of selecting each vertex with ``select_vertex``.

    Proof that an orbit at q > 1 repeats no point from the first point z_k
    whose den free divides.  Take a prime r | q and let m(z) be minus the
    least r-adic valuation of z's power-basis coefficients; in normal form
    m(z) = nu_r(den) when r divides den.  r divides neither p nor p + q,
    so m(lam z) = m(z) + nu_r(q) and m((1 + lam) v) = m(v) + nu_r(q), and
    m(v) <= nu_r(L) for every vertex v.  If m(z) > nu_r(L), as free | den
    gives for z_k, the two terms of z' = (1 + lam) v - lam z have distinct
    m, so m(z') = m(z) + nu_r(q) (the ultrametric inequality, coefficient
    by coefficient), again above nu_r(L).  So m increases strictly from z_k
    on, and z_k, z_(k+1), ... are distinct.  A point z_j, j >= k, equal to
    an earlier z_i would make the orbit periodic from i on with period
    j - i, so z_k' = z_(k' + j - i) for k' = max(i, k): impossible.  At
    lam = 1 every point is hashed.
    """
    lam = Fraction(lam)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    p, q = lam.numerator, lam.denominator
    if not 0 < p <= q:
        raise ValueError("need 0 < lam <= 1")
    rec = OrbitRecord(start=x, lam=lam, points=[x])
    points, code = rec.points, rec.code
    vertices, orders, extent = P.vertices, P.float_wedges(), P.float_extent()
    # below 1, a point whose den free divides repeats no point (proof above);
    # seen is None from the first such point on
    free = q * math.lcm(*(v.den for v in vertices))
    seen = {x: 0} if q == 1 or x.den % free else None
    g, l = float(1 + lam), float(lam)  # correctly rounded int divisions
    grow = l * (1 + 8 * _U)
    fx, fy, d = x.float_image() if x.n == vertices[0].n else (0.0, 0.0, math.inf)
    order = orders[0]
    cur = x
    for k in range(max_steps):
        w = max(abs(fx), abs(fy)) + extent
        row = float_select(order, fx, fy, _select_margin(w, d))
        if row is None:
            sel = select_vertex(P, cur)
            if sel.kind != "vertex":
                rec.termination = "inside" if sel.kind == "inside" else "hit_singular"
                rec.singular_step = None if sel.kind == "inside" else k
                return rec
            row = orders[0][sel.label - 1]
            fx, fy, d = cur.float_image()
            w = max(abs(fx), abs(fy)) + extent
        label, vx, vy = row[0], row[1], row[2]
        cur = reflect_contract(vertices[label - 1], p, q, cur)
        fx, fy, d = g * vx - l * fx, g * vy - l * fy, grow * d + _STEP_ERROR * w
        order = orders[label]
        code.append(label)
        points.append(cur)
        if seen is None or (q > 1 and cur.den % free == 0):
            seen = None
            continue
        prev = seen.setdefault(cur, k + 1)
        if prev <= k:
            rec.termination = "exact_repeat"
            rec.preperiod = prev
            rec.period = k + 1 - prev
            return rec
    return rec


def seed_code(P, x, max_steps):
    """Code of the cycle the exact lam = 1 orbit of x closes on; ObcError
    saying why when it does not close."""
    rec = iterate(P, 1, x, max_steps)
    if rec.termination == "inside":
        raise ObcError("seed lies in the closed polygon, where the map is undefined")
    if rec.termination == "hit_singular":
        raise ObcError(f"seed's orbit meets the singular set at step {rec.singular_step}")
    if rec.termination == "cap_reached":
        raise ObcError(f"seed is not periodic within {max_steps} steps")
    return Code(rec.cycle_code())


def orbit_bound(P, lam):
    """(1 + lam)/(1 - lam) * max_i |v_i|, the Euclidean norm."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("bound defined for 0 < lam < 1 only")
    worst = 0.0
    for v in P.vertices:
        x, y = point_xy(v)
        worst = max(worst, (x * x + y * y) ** 0.5)
    return float(Fraction(1 + lam, 1 - lam)) * worst


def orbit_to_text(rec):
    """Line-oriented export: one serialized point per line, then a code line."""
    lines = [p.serialize() for p in rec.points]
    lines.append("code=" + ",".join(str(c) for c in rec.code))
    return "\n".join(lines) + "\n"


# -- symbolic codes ----------------------------------------------------------


def least_rotation(seq):
    """Index of the lexicographically least rotation (Booth's algorithm)."""
    s = list(seq) + list(seq)
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def primitive_period(word):
    m = len(word)
    for p in range(1, m + 1):
        if m % p == 0 and all(word[i] == word[i % p] for i in range(m)):
            return p
    return m  # pragma: no cover


class Code:
    """Finite word of vertex labels; the orbit/tile itinerary.

    The canonical form doubles odd-length words and takes the least cyclic
    rotation, so equal orbits compare equal regardless of phase.
    """

    __slots__ = ("word", "_canonical", "_period")

    def __init__(self, word):
        word = tuple(int(a) for a in word)
        if not word:
            raise ValueError("empty code")
        if any(a < 1 for a in word):
            raise ValueError("labels are 1-based")
        self.word = word
        self._canonical = None
        self._period = None

    def __len__(self):
        return len(self.word)

    def __iter__(self):
        return iter(self.word)

    def __eq__(self, other):
        if not isinstance(other, Code):
            return NotImplemented
        return self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"Code({','.join(str(a) for a in self.word)})"

    @classmethod
    def coerce(cls, code):
        """The code itself, or a Code of the given labels."""
        return code if isinstance(code, cls) else cls(code)

    def validate_labels(self, n):
        if any(a > n for a in self.word):
            raise ValueError(f"label out of range for n={n}")

    @property
    def period(self):
        p = self._period
        if p is None:
            p = primitive_period(self.word)
            self._period = p
        return p

    def doubled_even(self):
        """The word, repeated once if its length is odd."""
        w = self.word
        return w if len(w) % 2 == 0 else w + w

    def canonical(self):
        c = self._canonical
        if c is None:
            w = self.doubled_even()
            k = least_rotation(w)
            c = tuple(w[k:] + w[:k])
            self._canonical = c
        return c

    def canonical_code(self):
        return Code(self.canonical())

    def shifted(self, j=1):
        w = self.word
        j %= len(w)
        return Code(w[j:] + w[:j])

    def serialize(self):
        return ",".join(str(a) for a in self.word)

    @classmethod
    def parse(cls, text):
        return cls(int(p) for p in text.split(","))
