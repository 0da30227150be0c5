"""The outer billiards map with contraction: vertex selection, stepping,
symbolic coding and orbit iteration.

The map sends x to (1 + lam) * v - lam * x, where v is the unique vertex of P
such that P lies on the left of the ray from x through v; lam = 1 is the
uncontracted map.  The singular set S is the union of rays extending the
sides of P, where two vertices qualify and the choice is ambiguous.

Vertex selection is a filtered predicate: the float orientations of the
polygon's cached wedge table, tested against a margin proved from the point
(``_select_margin``), certify a vertex without any exact arithmetic; only a
point the filter cannot decide reads the signs of the polygon's integer
edge forms (``ConvexPolygon.edge_sign``), one per edge.  A step is one
integer combination of the numerators of v and x, reduced by one gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import GeometryError, ObcError, StepDomainError
from .field import _U, CycloNum, _reduced, context, sign_of_real  # noqa: F401, perfbench/selftest.py checks it
from .geometry import point_xy


@dataclass(frozen=True)
class Selection:
    kind: str  # "vertex" | "singular" | "inside"
    label: int | None = None
    candidates: tuple[int, ...] = ()


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
    the singular set.  The float orientations of the wedge table prove it
    when they clear the margin of ``_select_margin``; any other point, on
    or near the singular set or inside P, is decided by one exact edge sign
    per edge.
    """
    fx = x.to_complex()
    row = float_select(P.float_wedges()[0], fx.real, fx.imag, _select_margin(P, x))
    if row is not None:
        return Selection("vertex", row[0])
    return _select_exhaustive(P, x)


def _select_margin(P, x):
    """C W^2, a proved bound on the error of both float orientations that
    float_select evaluates at ``x.to_complex()``, so an orientation above it
    is positive exactly; math.inf, which certifies nothing, for a point of
    another conductor or one too large for the bound's floats (see the end).

    W = S + V + 1 with S = fl(sum |num_k| / den) and V + 1 =
    ``P.float_extent()``; C = 4 E + 16 u with u = 2^-53 and E = (phi + 2) u
    + 2^-47 from ``Cyclotomic.to_complex_error``, so C is 2^-44.8 at
    phi = 2 and 2^-43.4 at phi = 126, the largest phi(n) for n <=
    MAX_CONDUCTOR.

    Proof.  It combines the float error bounds that the two inputs state.
    CPython's int true division is correctly rounded, so x's coordinates
    are at most T = sum |num_k| / den <= S (1 + u) in size, and

    (a) each coordinate of ``x.to_complex()`` is within E (T + 1) <=
        E (1 + u) W of the true one (``CycloNum.to_complex``);
    (b) each float vertex coordinate is within 1.01 u (V + 1) <= 1.01 u W of
        the true one (``ConvexPolygon.float_extent``);
    (c) each orientation is (v - p) x (w - p) for wedge vertices v, w, in
        four float subtractions, two products and one subtraction: within
        gamma_4 (|A| + |B|) of its exact value at the float inputs,
        gamma_m = m u / (1 - m u), where each product A, B is at most
        ((1 + E) W)^2 by (a).  Moving the inputs to the true points moves
        a x b, with |a|, |b| <= (1 + 2u) W in the sup norm, by at most
        2 (|a| e + e |b| + e^2) for sup errors e <= (E + 1.01 u) W, by (a)
        and (b).

    Together the error is at most 2 gamma_4 (1 + E)^2 W^2 + 4 (1 + 2u) e W
    + 2 e^2 <= (8 u + 4 (E + 1.01 u)) W^2 = (4 E + 12.04 u) W^2, up to
    products of two small terms, which phi <= 126 keeps below 2^-85 W^2.
    C exceeds that by more than 3.9 u W^2, which covers reading W from
    fl(S) and evaluating C W^2 in floats (a relative 8 u of C, under
    2^-93).  The first orientation is (v_(a+1) - v_a) x (p - v_a), a
    positive multiple of edge a - 1's value at p, and the second is minus
    that of edge a - 2 (``edge_sign``, 0-based); both above C W^2 prove
    ``P.in_wedge(a, x)``.  The bit lengths below give T < 2^501, and with
    W < 2^502 every float above is finite.
    """
    den, total = x.den, sum(map(abs, x.num))
    if x.n != P.vertices[0].n or total.bit_length() > den.bit_length() + 500:
        return math.inf  # the exact path decides, or refuses a foreign point
    w = total / den + P.float_extent()
    if not w < 2.0**502:
        return math.inf
    return (4 * context(x.n).to_complex_error() + 16 * _U) * w * w


def _select_exhaustive(P, x):
    # one exact sign per edge; edge i runs from vertex i to vertex i + 1
    # (0-based).  Vertex i qualifies when P lies in the closed left
    # half-plane of the ray from x through it, i.e. (P convex) when both of
    # its neighbours do: s[i] >= 0 and s[i - 1] <= 0.
    m = len(P.vertices)
    s = [P.edge_sign(i, x) for i in range(m)]
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
    """One application of the map: y = (1 + lam) * v - lam * x, exactly.

    Raises StepDomainError for points inside P or on the singular set.
    """
    if not isinstance(lam, Fraction):  # iterate passes a Fraction every step
        lam = Fraction(lam)
    p, q = lam.numerator, lam.denominator
    if not 0 < p <= q:
        raise ValueError("need 0 < lam <= 1")
    sel = select_vertex(P, x)
    if sel.kind != "vertex":
        raise StepDomainError(sel.kind)
    return reflect_contract(P.vertices[sel.label - 1], p, q, x), sel.label


def reflect_contract(v, p, q, x):
    """(1 + p/q) v - (p/q) x, exactly: one integer combination of the
    numerators of v and x over the common denominator q * v.den * x.den,
    reduced by one gcd."""
    a, b = (p + q) * x.den, p * v.den
    num = [a * vk - b * xk for vk, xk in zip(v.num, x.num)]
    return _reduced(x.n, num, q * v.den * x.den)


@dataclass
class OrbitRecord:
    """Recorded orbit with its code and termination reason.

    termination is "cap_reached", "exact_repeat" (with preperiod/period),
    "hit_singular" (with singular_step) or "inside" (start in the closed
    polygon).  code[i] is the label the i-th recorded point reflects on.
    """

    start: CycloNum
    lam: Fraction
    points: list = field(default_factory=list)
    code: list = field(default_factory=list)
    termination: str = "cap_reached"
    preperiod: int | None = None
    period: int | None = None
    singular_step: int | None = None

    def cycle_code(self):
        if self.termination != "exact_repeat":
            raise ValueError("orbit did not close up")
        return tuple(self.code[self.preperiod : self.preperiod + self.period])


def iterate(P, lam, x, max_steps):
    """Iterate the map, recording points and code.

    Stops at max_steps, at an exact point repetition (hash on the normal
    form; no tolerances), on the singular set, or at once inside P.
    """
    lam = Fraction(lam)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    rec = OrbitRecord(start=x, lam=lam, points=[x])
    seen = {x: 0}
    cur = x
    for k in range(max_steps):
        try:
            cur, label = step(P, lam, cur)
        except StepDomainError as exc:
            rec.termination = "inside" if exc.kind == "inside" else "hit_singular"
            rec.singular_step = None if exc.kind == "inside" else k
            return rec
        rec.code.append(label)
        rec.points.append(cur)
        prev = seen.get(cur)
        if prev is not None:
            rec.termination = "exact_repeat"
            rec.preperiod = prev
            rec.period = k + 1 - prev
            return rec
        seen[cur] = k + 1
    rec.termination = "cap_reached"
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


def orbit_bound(P, lam, norm="euclidean"):
    """(1 + lam)/(1 - lam) * max_i ||v_i|| in the requested norm."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("bound defined for 0 < lam < 1 only")
    worst = 0.0
    for v in P.vertices:
        x, y = point_xy(v)
        if norm == "euclidean":
            worst = max(worst, (x * x + y * y) ** 0.5)
        elif norm == "sup":
            worst = max(worst, abs(x), abs(y))
        else:
            raise ValueError(f"unknown norm {norm!r}")
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
