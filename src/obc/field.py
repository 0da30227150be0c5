"""Exact arithmetic in the cyclotomic field Q(zeta_n).

Elements are stored in the power basis {1, zeta, ..., zeta^(phi(n)-1)},
reduced modulo the n-th cyclotomic polynomial, as a tuple of integer
numerators over one positive common denominator that shares no factor with
all of them.  The representation is a canonical normal form: an element is
zero exactly when every numerator is zero, which is what makes certified
sign evaluation possible (refinement only ever runs on provably nonzero
inputs).  Ring operations work on the integers; Fraction coefficients are
formed only where values enter or leave (constructors, ``coeffs``,
``serialize``, ``approximate``).  ``inverse`` is the Galois norm: with
z = w/den, 1/z = den * prod / N(w), where prod is the product of the other
conjugates sigma_k(w) and N(w) = w * prod is a positive integer.

Numeric enclosures rest on one table per precision of fixed-point integer
bounds of cos(2*pi*k/n) and sin(2*pi*k/n), computed with Python integers
only (Machin's formula for pi, then Taylor series, every step rounded
outward; see ``Cyclotomic.fixed_trig``); an enclosure is then an exact
integer dot product, so it is mathematically guaranteed.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from .errors import ConductorMismatchError, NotRealError

# The trig tables are computed this many bits, plus prec.bit_length(), past
# the fixed-point grid: the series lose O(prec) units of the finer grid, so
# each rounded table entry is at most 2^_TRIG_WIDTH_BITS units of 2^-prec
# wide (checked where the table is built); ``_sign_cap`` relies on that width.
_TRIG_GUARD_BITS = 8
_TRIG_WIDTH_BITS = 1

# Largest error in either coordinate of an entry of the float trig table that
# ``Cyclotomic.to_complex_error`` accepts.  The table is libm's cos and sin of
# the rounded angle 2.0*math.pi*k/n: three roundings of an angle below 2*pi
# move it by under 20 units of 2^-53, and libm adds about one more; the
# largest error measured for n <= MAX_CONDUCTOR is 9.2 units.
FLOAT_TRIG_ERROR = 2.0**-47

_U = 2.0**-53  # unit roundoff of a double

# Largest conductor a context is built for: a context holds O(n * phi) table
# entries and the Galois-norm inverse takes phi - 1 products, about phi^3.3
# in all (under a second at n = 127 for 7-bit coefficients, minutes near
# n = 1000).
# The regular polygons of interest have n <= 12.
MAX_CONDUCTOR = 128


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _poly_div_exact_int(num, den):
    # den is monic; division of integer polynomials known to be exact
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd]
        out[i] = c
        if c:
            for j, y in enumerate(den):
                num[i + j] -= c * y
    if any(num[:dd]):
        raise ArithmeticError("inexact polynomial division")
    return out


_CYCLO_CACHE = {}


def cyclotomic_polynomial(n):
    """Monic integer coefficients of Phi_n, low degree first."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact_int(poly, cyclotomic_polynomial(d))
    poly = tuple(poly)
    _CYCLO_CACHE[n] = poly
    return poly


def _atan_inv(x, w):
    """(s, e) with |2^w atan(1/x) - s| < e, for an integer x >= 2.

    Term j of atan(1/x) = sum (-1)^j / ((2j+1) x^(2j+1)) is taken as
    t_j = floor(2^w / ((2j+1) x^(2j+1))): p_j = floor(2^w / x^(2j+1)) by
    repeated floor division (floor(floor(a)/m) = floor(a/m)), then
    t_j = floor(p_j / (2j+1)).  The sum stops at the first t_J = 0.  Each
    kept term errs by less than 1, and the alternating tail by less than
    the true term J, which is below 1 because t_J = 0.
    """
    p = (1 << w) // x
    x2 = x * x
    s = j = 0
    while True:
        t = p // (2 * j + 1)
        if not t:
            return s, j + 1
        s += -t if j & 1 else t
        p //= x2
        j += 1


def _pi_bounds(w):
    """Integers lo < 2^w pi < hi by Machin: pi = 16 atan(1/5) - 4 atan(1/239)."""
    s5, e5 = _atan_inv(5, w)
    s239, e239 = _atan_inv(239, w)
    mid, err = 16 * s5 - 4 * s239, 16 * e5 + 4 * e239
    return mid - err, mid + err


def _cos_sin_bounds(lo, hi, w):
    """Integers (clo, chi, slo, shi) bounding 2^w cos(phi) and 2^w sin(phi)
    for every phi in [lo, hi] / 2^w, where 0 <= lo <= hi and hi / 2^w < 2.

    a_i <= 2^w phi^i / i! <= b_i by a_i = floor(a_(i-1) lo / (i 2^w)) and
    b_i = ceil(b_(i-1) hi / (i 2^w)), from a_0 = b_0 = 2^w (rounding to
    2^-w units first and then dividing by i gives the same floor and ceil).
    Term i goes to cos (i even) or sin (i odd) with sign (-1)^(i//2), so
    each partial sum is bounded by its a's and b's.  The terms stop at the
    first b_m <= 1.  As phi < 2 <= i + 1 for i >= 1, the terms phi^i/i!
    decrease from i = 1 on, so each series is alternating with decreasing
    terms after its last kept one: its tail is at most its first omitted
    term, which is at most phi^m/m! <= b_m / 2^w.  Both sums are widened by
    b_m (0 when phi = 0, which keeps cos 0 and sin 0 exact).
    """
    one = 1 << w
    bounds = [one, one, 0, 0]  # cos lo, cos hi, sin lo, sin hi
    a = b = one
    i = 0
    while True:
        i += 1
        a = (a * lo >> w) // i
        b = -((-(b * hi) >> w) // i)
        if b <= 1:
            break
        at = 2 * (i & 1)
        if i & 2:
            bounds[at] -= b
            bounds[at + 1] -= a
        else:
            bounds[at] += a
            bounds[at + 1] += b
    return bounds[0] - b, bounds[1] + b, bounds[2] - b, bounds[3] + b


def _nonzero(row):
    return tuple((j, r) for j, r in enumerate(row) if r)


def check_conductor(n):
    """Raise ValueError unless 3 <= n <= MAX_CONDUCTOR."""
    if not 3 <= n <= MAX_CONDUCTOR:
        raise ValueError(f"conductor must be in [3, {MAX_CONDUCTOR}], got {n}")


class Cyclotomic:
    """Per-conductor context: reduction, automorphism and trig tables."""

    __slots__ = (
        "n", "phi", "zeta_rows", "_red_sparse", "_sigma", "_fixed_trig", "_float_trig",
        "_float_checked",
    )

    def __init__(self, n):
        check_conductor(n)
        self.n = n
        mod = cyclotomic_polynomial(n)
        phi = len(mod) - 1
        self.phi = phi
        # rows[m]: power-basis numerators of zeta^m, by zeta^m = zeta * zeta^(m-1)
        rows = [tuple(int(j == m) for j in range(phi)) for m in range(phi)]
        base = [-c for c in mod[:phi]]
        for _ in range(phi, max(2 * phi - 2, n - 1) + 1):
            prev = rows[-1]
            rows.append(tuple(s + prev[-1] * b for s, b in zip((0,) + prev[:-1], base)))
        self.zeta_rows = rows[:n]
        # x^m -> its reduction, for the top half of a product, highest first
        self._red_sparse = tuple(
            (m, _nonzero(rows[m])) for m in range(2 * phi - 2, phi - 1, -1)
        )
        self._sigma = {}
        self._fixed_trig = {}
        self._float_trig = [
            (math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n))
            for k in range(phi)
        ]
        self._float_checked = False

    def sigma(self, k):
        """Sparse integer table of the automorphism zeta -> zeta^k, gcd(k, n) = 1.

        Row j holds the nonzero power-basis entries of zeta^(j k), j < phi.
        """
        table = self._sigma.get(k)
        if table is None:
            table = tuple(_nonzero(self.zeta_rows[j * k % self.n]) for j in range(self.phi))
            self._sigma[k] = table
        return table

    def fixed_trig(self, prec):
        """Certified fixed-point (cos, sin) of zeta^k for k < phi at ``prec`` bits.

        Entry k is integers (clo, chi, slo, shi) with clo <= 2^prec cos(2 pi k/n)
        <= chi and slo <= 2^prec sin(2 pi k/n) <= shi, each pair at most
        2^_TRIG_WIDTH_BITS apart.

        Proof, in integers only, at w = prec + _TRIG_GUARD_BITS +
        prec.bit_length() bits (each step rounds outward, so each bound
        holds):

        * pi: lo < 2^w pi < hi by Machin's formula (``_pi_bounds``).
        * Quadrant: write 4k = q n + r with 0 <= r < n.  Then
          2 pi k/n = q pi/2 + phi with phi = pi r/(2n) in [0, pi/2), and
          2^w phi lies in [floor(lo r/(2n)), ceil(hi r/(2n))].
        * cos phi and sin phi: Taylor series over that interval
          (``_cos_sin_bounds``).
        * Rotation by q quarter turns maps (cos phi, sin phi) to
          (cos, sin), (-sin, cos), (-cos, -sin) or (sin, -cos); negating an
          interval swaps its ends.
        * Rounding: floor the lower and ceil the upper bound from 2^-w to
          2^-prec units.

        A table wider than 2^_TRIG_WIDTH_BITS units raises ArithmeticError,
        since ``_sign_cap``'s proof needs that width.  k = 0, and every k
        with r = 0, comes out exact.
        """
        cached = self._fixed_trig.get(prec)
        if cached is not None:
            return cached
        n = self.n
        g = _TRIG_GUARD_BITS + prec.bit_length()
        w = prec + g
        pi_lo, pi_hi = _pi_bounds(w)
        out = []
        for k in range(self.phi):
            q, r = divmod(4 * k, n)
            clo, chi, slo, shi = _cos_sin_bounds(
                pi_lo * r // (2 * n), -(-pi_hi * r // (2 * n)), w)
            for _ in range(q):
                clo, chi, slo, shi = -shi, -slo, clo, chi
            entry = (clo >> g, -(-chi >> g), slo >> g, -(-shi >> g))
            if max(entry[1] - entry[0], entry[3] - entry[2]) > 1 << _TRIG_WIDTH_BITS:
                raise ArithmeticError(f"trig enclosure too wide at {prec} bits")
            out.append(entry)
        out = tuple(out)
        self._fixed_trig[prec] = out
        return out

    def to_complex_error(self):
        """E = (phi + 2) u + FLOAT_TRIG_ERROR, u = 2^-53: each coordinate of
        ``CycloNum.to_complex()`` for an element of this field is within
        E (T + 1) of the true one, T = sum |num_k| / den (proof there).

        First, once per context, every entry of the float trig table is
        proved within FLOAT_TRIG_ERROR of cos(2 pi k/n) and sin(2 pi k/n),
        else ArithmeticError.  The proof is in integers, so nothing rests on
        libm's accuracy: fixed_trig(64) encloses the true value in
        [lo, hi] / 2^64, and a float f = p/q (q a power of two) is within
        FLOAT_TRIG_ERROR = 2^-47 of every point of that interval iff
        |p 2^64 - lo q| and |p 2^64 - hi q| are at most 2^17 q.
        """
        if not self._float_checked:
            for pair, (clo, chi, slo, shi) in zip(self._float_trig, self.fixed_trig(64)):
                for f, lo, hi in zip(pair, (clo, slo), (chi, shi)):
                    p, q = f.as_integer_ratio()
                    if max(abs((p << 64) - lo * q), abs((p << 64) - hi * q)) > q << 17:
                        raise ArithmeticError(
                            f"float trig table of conductor {self.n} is off by more "
                            f"than {FLOAT_TRIG_ERROR!r}")
            self._float_checked = True
        return (self.phi + 2) * _U + FLOAT_TRIG_ERROR

    def float_sine(self):
        """sin(2 pi/n) as the float of the trig table, proved within
        FLOAT_TRIG_ERROR (``to_complex_error``)."""
        self.to_complex_error()
        return self._float_trig[1][1]

_CONTEXTS = {}


def context(n):
    ctx = _CONTEXTS.get(n)
    if ctx is None:
        ctx = Cyclotomic(n)
        _CONTEXTS[n] = ctx
    return ctx


def _as_fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


def _raw(n, num, den):
    """A CycloNum from a tuple ``num`` over ``den > 0`` already in normal form."""
    z = object.__new__(CycloNum)
    z.n = n
    z.num = num
    z.den = den
    z._coeffs = None
    z._hash = None
    z._cfloat = None
    return z


def _reduced(n, num, den):
    """A CycloNum from integer numerators over ``den > 0``, divided by their gcd."""
    g = math.gcd(den, *num)
    if g != 1:
        return _raw(n, tuple(a // g for a in num), den // g)
    return _raw(n, tuple(num), den)


def _sum(n, anum, aden, bnum, bden):
    """anum/aden + bnum/bden for numerator tuples of two normal forms."""
    if aden == bden:
        num = tuple(a + b for a, b in zip(anum, bnum))
        return _raw(n, num, 1) if aden == 1 else _reduced(n, num, aden)
    g = math.gcd(aden, bden)
    fa, fb = bden // g, aden // g
    num = tuple(a * fa + b * fb for a, b in zip(anum, bnum))
    # coprime denominators leave the sum in lowest terms
    return _raw(n, num, aden * bden) if g == 1 else _reduced(n, num, aden * fa)


def _apply(num, table):
    """Numerators of sigma(w), w = sum num[j] zeta^j, from sigma's sparse table."""
    out = [0] * len(num)
    for c, row in zip(num, table):
        if c:
            for i, r in row:
                out[i] += c * r
    return tuple(out)


def _dec_int(text):
    """int(text) for a decimal literal of any length.

    Read through ``Decimal``, which has no int-to-str digit limit; the literal
    must be plain ASCII digits after an optional sign.
    """
    body = text[1:] if text[:1] in "+-" else text
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"invalid integer literal {text[:40]!r} ({len(text)} characters)")
    return int(Decimal(text))


class CycloNum:
    """An element of Q(zeta_n) in reduced power-basis normal form.

    The value is sum(num[k] * zeta^k) / den with integer ``num``, ``den > 0``
    and gcd(den, *num) == 1; zero is (0, ..., 0)/1.  Immutable; all
    operations return new values.  Mixed arithmetic with int and Fraction
    scalars is supported.
    """

    __slots__ = ("n", "num", "den", "_coeffs", "_hash", "_cfloat")

    def __init__(self, n, coeffs):
        ctx = context(n)
        coeffs = tuple(_as_fraction(c) for c in coeffs)
        if len(coeffs) != ctx.phi:
            raise ValueError(
                f"need {ctx.phi} coefficients for conductor {n}, got {len(coeffs)}"
            )
        # lcm of lowest-terms denominators: the numerators share no factor with it
        den = math.lcm(*(c.denominator for c in coeffs))
        self.n = n
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den
        self._coeffs = coeffs
        self._hash = None
        self._cfloat = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return _raw(n, (0,) * context(n).phi, 1)

    @classmethod
    def one(cls, n):
        return cls.from_rational(n, 1)

    @classmethod
    def from_rational(cls, n, q):
        q = _as_fraction(q)
        return _raw(n, (q.numerator,) + (0,) * (context(n).phi - 1), q.denominator)

    @classmethod
    def zeta(cls, n, k=1):
        return _raw(n, context(n).zeta_rows[k % n], 1)

    # -- basics ------------------------------------------------------------

    @property
    def coeffs(self):
        """Power-basis coefficients as lowest-terms Fractions (read-only)."""
        c = self._coeffs
        if c is None:
            den = self.den
            c = tuple(Fraction(a, den) for a in self.num)
            self._coeffs = c
        return c

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def is_real(self):
        return self == self.conj()

    def __eq__(self, other):
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self):
        h = self._hash
        if h is None:
            # int hashes are residues mod 2^61 - 1, so den = 2^k alone repeats
            # with k mod 61 along a contracted orbit; its bit length does not
            h = hash((self.n, self.den.bit_length(), self.den, self.num))
            self._hash = h
        return h

    def __repr__(self):
        return f"CycloNum({self.serialize()!r})"

    def _check(self, other):
        if self.n != other.n:
            raise ConductorMismatchError(
                f"conductor mismatch: {self.n} vs {other.n}"
            )

    def _operand(self, other):
        if isinstance(other, CycloNum):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(self.n, other)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _sum(self.n, self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _sum(self.n, self.num, self.den, tuple(-b for b in other.num), other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _raw(self.n, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _reduced(self.n, tuple(a * p for a in self.num), self.den * q)
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        ctx = context(self.n)
        phi = ctx.phi
        b = [(j, y) for j, y in enumerate(other.num) if y]
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in b:
                    conv[i + j] += x * y
        for m, row in ctx._red_sparse:
            c = conv[m]
            if c:
                for j, r in row:
                    conv[j] += c * r
        return _reduced(self.n, conv[:phi], self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloNum.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """1/self by the Galois norm.

        Write self = w/den with w = sum num[k] zeta^k.  prod, the product of
        sigma_k(w) over the units k != 1 mod n, has integer coefficients, and
        N = w * prod, the norm of w, is a rational integer.  Q(zeta_n) is
        totally complex, so N is a product of squared absolute values and
        N > 0; hence 1/self = den * prod / N.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        n = self.n
        ctx = context(n)
        prod = None
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                s = _raw(n, _apply(self.num, ctx.sigma(k)), 1)
                prod = s if prod is None else prod * s
        norm = _raw(n, self.num, 1) * prod
        return _reduced(n, tuple(self.den * a for a in prod.num), norm.num[0])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / c)
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conj(self):
        """Complex conjugation, the automorphism zeta -> zeta^(n-1).

        An automorphism maps the integer numerators by an invertible integer
        matrix, so their gcd with the denominator stays 1 and no reduction is
        needed.
        """
        return _raw(self.n, _apply(self.num, context(self.n).sigma(self.n - 1)), self.den)

    # -- numeric evaluation --------------------------------------------------

    def enclosure(self, prec):
        """Integers (lo, hi, ilo, ihi) with lo <= s * re <= hi and ilo <= s * im <= ihi.

        s = den * 2^prec, and re, im are the real and imaginary parts of this
        element's value.
        """
        lo = hi = ilo = ihi = 0
        for a, (clo, chi, slo, shi) in zip(self.num, context(self.n).fixed_trig(prec)):
            if a > 0:
                lo += a * clo
                hi += a * chi
                ilo += a * slo
                ihi += a * shi
            elif a < 0:
                lo += a * chi
                hi += a * clo
                ilo += a * shi
                ihi += a * slo
        return lo, hi, ilo, ihi

    def to_complex(self):
        """The element as a float complex, each coordinate within E (T + 1)
        of the true one: E = ``context(n).to_complex_error()``, T =
        sum |num_k| / den.

        Proof.  (a) CPython's int true division is correctly rounded, so
        f_k = fl(num_k / den) = t_k (1 + e_k) with t_k = num_k / den and
        |e_k| <= u = 2^-53.  (b) The loop sums at most phi products f_k c_k
        left to right, within gamma_phi sum |f_k c_k| of their exact sum,
        gamma_m = m u / (1 - m u) (Higham, Accuracy and Stability of
        Numerical Algorithms, (3.5)).  (c) Each table entry c_k is within
        delta = FLOAT_TRIG_ERROR of the true cosine or sine, as
        ``to_complex_error`` proves before it returns E.  So the error is
        at most (u (1 + delta) + delta) T + gamma_phi (1 + u)(1 + delta) T
        <= E T; the + 1 covers underflow, at most 2^-1075 per operation.

        ``dynamics.select_vertex`` certifies vertices with this bound, so it
        holds for this loop as written: another summation order, fsum or
        table must restate it there.
        """
        v = self._cfloat
        if v is None:
            ctx = context(self.n)
            den = self.den
            re = im = 0.0
            for a, (ck, sk) in zip(self.num, ctx._float_trig):
                if a:
                    f = a / den  # correctly rounded, as float(Fraction(a, den))
                    re += f * ck
                    im += f * sk
            v = complex(re, im)
            self._cfloat = v
        return v

    # -- serialization -------------------------------------------------------

    def serialize(self):
        """``n:c0/d0,c1/d1,...`` with coefficients in lowest terms."""
        # via Decimal: int-to-str conversion has an interpreter-wide digit limit
        body = ",".join(f"{Decimal(c.numerator)}/{Decimal(c.denominator)}"
                        for c in self.coeffs)
        return f"{self.n}:{body}"

    @classmethod
    def parse(cls, text):
        head, sep, body = text.partition(":")
        if not sep:
            raise ValueError(f"bad CycloNum literal: {text!r}")
        n = int(head)
        parts = body.split(",")
        coeffs = []
        for p in parts:
            num, sep, den = p.partition("/")
            if not sep:
                raise ValueError(f"bad coefficient {p!r} in {text!r}")
            d = _dec_int(den)
            if d == 0:
                raise ValueError(f"zero denominator in coefficient {p!r} of {text!r}")
            coeffs.append(Fraction(_dec_int(num), d))
        return cls(n, coeffs)


def _sign_cap(z):
    """Precision in bits at which the enclosure of a real z != 0 excludes zero.

    Write z = beta/den with beta = sum a_k zeta^k and integers a_k, and let
    A = sum |a_k| < 2^L with L = A.bit_length().  beta is a nonzero algebraic
    integer, so its norm, the product of sigma(beta) over the phi embeddings
    sigma of Q(zeta_n), is a nonzero rational integer: |N(beta)| >= 1.  Each
    sigma(beta) = sum a_k sigma(zeta)^k has |sigma(beta)| <= A, hence
    |beta| >= A^-(phi-1) > 2^-((phi-1) L).  At precision p the real part of
    the enclosure of beta is sum |a_k| times table intervals at most
    2^(W-p) wide, W = _TRIG_WIDTH_BITS, so its width is below 2^(L+W-p).
    An interval holding beta that is narrower than |beta| excludes zero, and
    2^(L+W-p) <= 2^-((phi-1) L) once p >= phi L + W.
    """
    return context(z.n).phi * sum(abs(a) for a in z.num).bit_length() + _TRIG_WIDTH_BITS


def sign_of_real(z, _checked=False):
    """Exact sign of a real field element under zeta -> exp(2*pi*i/n).

    Zero is decided by the normal form alone; for provably nonzero input the
    enclosure is refined with doubling precision until it excludes zero,
    which it does once the precision reaches ``_sign_cap(z)`` bits.  Neither
    step needs the numerators in lowest terms, only that they are integers,
    so z may also be an unreduced integer vector over denominator 1 (as
    ``ConvexPolygon.edge_sign`` passes).
    """
    if not _checked and not z.is_real():
        raise NotRealError(f"element is not real: {z.serialize()}")
    if z.is_zero():
        return 0
    if z.is_rational():
        return 1 if z.num[0] > 0 else -1
    cap = _sign_cap(z)
    prec = 64
    while True:
        lo, hi, _, _ = z.enclosure(prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if prec >= cap:
            # unreachable while the trig tables keep the width _sign_cap assumes
            raise ArithmeticError(f"sign undecided at the proved {cap} bits: {z.serialize()}")
        prec *= 2


def approximate(z, precision_bits):
    """Certified dyadic enclosures ((re_lo, re_hi), (im_lo, im_hi)).

    Endpoints are Fractions on the 2^-(precision_bits+2) grid; enclosures at
    doubled precision are nested inside coarser ones.
    """
    if precision_bits < 16:
        raise ValueError("precision_bits must be >= 16")
    if z.is_zero():
        zero = (Fraction(0), Fraction(0))
        return zero, zero
    total, den = sum(abs(a) for a in z.num), z.den
    g = math.gcd(total, den)
    mbits = max(0, (total // g).bit_length() - (den // g).bit_length() + 1)
    work = precision_bits + 16 + mbits
    lo, hi, ilo, ihi = z.enclosure(work)
    scale = den << work
    grid = 1 << (precision_bits + 2)

    def outward(lo, hi):
        return Fraction(lo * grid // scale - 1, grid), Fraction(-(-hi * grid // scale) + 1, grid)

    return outward(lo, hi), outward(ilo, ihi)
