"""Exact arithmetic in the cyclotomic field Q(zeta_n).

Elements are stored in the power basis {1, zeta, ..., zeta^(phi(n)-1)},
reduced modulo the n-th cyclotomic polynomial, as a tuple of integer
numerators over one positive common denominator that shares no factor with
all of them.  The representation is a canonical normal form: an element is
zero exactly when every numerator is zero, which is what makes certified
sign evaluation possible (refinement only ever runs on provably nonzero
inputs).  Ring operations work on the integers; Fraction coefficients are
formed only where they are read (``coeffs``, ``serialize``, ``inverse``).

Numeric enclosures come from interval evaluations of cos(2*pi*k/n) and
sin(2*pi*k/n) (mpmath's interval module supplies those constants), rounded
outward once per precision to fixed-point integers; an enclosure is then an
exact integer dot product, so it is mathematically guaranteed.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from mpmath import iv

from .errors import ConductorMismatchError, NotRealError

# mpmath evaluates the trig tables this many bits past the fixed-point grid,
# so each rounded table entry is at most 2^_TRIG_WIDTH_BITS units of 2^-prec
# wide (checked where the table is built); ``_sign_cap`` relies on that width.
_TRIG_GUARD_BITS = 8
_TRIG_WIDTH_BITS = 1

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _fixed_point(t, prec, ceil):
    """floor (or ceil) of 2^prec times the mpf value tuple ``t``."""
    sign, man, exp, _ = t
    man = -int(man) if sign else int(man)
    shift = exp + prec
    if shift >= 0:
        return man << shift
    if ceil:
        return -((-man) >> -shift)
    return man >> -shift


class RatInterval:
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def contains(self, v):
        return self.lo <= v <= self.hi

    @property
    def width(self):
        return self.hi - self.lo

    def __repr__(self):
        return f"RatInterval({self.lo}, {self.hi})"


def _nonzero(row):
    return tuple((j, r) for j, r in enumerate(row) if r)


class Cyclotomic:
    """Per-conductor context: modulus, reduction tables, trig caches."""

    __slots__ = (
        "n", "phi", "modulus", "zeta_rows", "_red_sparse", "_conj_sparse",
        "_fixed_trig", "_float_trig",
    )

    def __init__(self, n):
        if n < 3:
            raise ValueError("conductor must be >= 3")
        self.n = n
        mod = cyclotomic_polynomial(n)
        phi = len(mod) - 1
        self.phi = phi
        self.modulus = mod
        top = max(2 * phi - 2, n - 1)
        rows = {}
        base = [-c for c in mod[:phi]]
        rows[phi] = base
        for m in range(phi + 1, top + 1):
            prev = rows[m - 1]
            shifted = [0] + prev[:-1]
            carry = prev[-1]
            if carry:
                shifted = [s + carry * b for s, b in zip(shifted, base)]
            rows[m] = shifted
        zrows = []
        for k in range(n):
            if k < phi:
                row = [0] * phi
                row[k] = 1
            else:
                row = list(rows[k])
            zrows.append(tuple(row))
        self.zeta_rows = zrows
        # x^m -> its reduction, for the top half of a product, highest first
        self._red_sparse = tuple(
            (m, _nonzero(rows[m])) for m in range(2 * phi - 2, phi - 1, -1)
        )
        # zeta^j -> conj(zeta^j) = zeta^(n-j), an integer involution
        self._conj_sparse = tuple(_nonzero(zrows[(n - j) % n]) for j in range(phi))
        self._fixed_trig = {}
        self._float_trig = [
            (math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n))
            for k in range(phi)
        ]

    def fixed_trig(self, prec):
        """Certified fixed-point (cos, sin) of zeta^k for k < phi at ``prec`` bits.

        Entry k is integers (clo, chi, slo, shi) with clo <= 2^prec cos(2 pi k/n)
        <= chi and slo <= 2^prec sin(2 pi k/n) <= shi, each pair at most
        2^_TRIG_WIDTH_BITS apart.
        """
        cached = self._fixed_trig.get(prec)
        if cached is not None:
            return cached
        old = iv.prec
        try:
            iv.prec = prec + _TRIG_GUARD_BITS
            out = []
            for k in range(self.phi):
                theta = 2 * iv.pi * k / self.n
                entry = []
                for val in (iv.cos(theta), iv.sin(theta)):
                    lo, hi = val._mpi_
                    entry += (_fixed_point(lo, prec, False), _fixed_point(hi, prec, True))
                if max(entry[1] - entry[0], entry[3] - entry[2]) > 1 << _TRIG_WIDTH_BITS:
                    raise ArithmeticError(f"mpmath trig enclosure too wide at {prec} bits")
                out.append(tuple(entry))
        finally:
            iv.prec = old
        out = tuple(out)
        self._fixed_trig[prec] = out
        return out


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
            h = hash((self.n, self.den, self.num))
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
            c = _as_fraction(other)
            return _reduced(self.n, tuple(a * c.numerator for a in self.num),
                            self.den * c.denominator)
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
        """1/self: extended Euclid over Q on the numerator polynomial, times den."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        ctx = context(self.n)
        mod = [Fraction(c) for c in ctx.modulus]
        r0, r1 = mod, _trim([Fraction(a) for a in self.num])
        s0, s1 = [], [_ONE]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if not r1:
            raise ZeroDivisionError("element not invertible")  # pragma: no cover
        inv_c = self.den / r1[0]
        s1 = [c * inv_c for c in s1]
        # reduce s1 mod the modulus (degree may reach phi for tiny inputs)
        out = [_ZERO] * ctx.phi
        for k, c in enumerate(s1):
            if c:
                row = ctx.zeta_rows[k % ctx.n] if k >= ctx.phi else None
                if row is None:
                    out[k] += c
                else:
                    for j, r in enumerate(row):
                        if r:
                            out[j] += c * r
        return CycloNum(self.n, out)

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
        """Complex conjugation (zeta -> zeta^(n-1)); a field automorphism.

        It is an integer involution on the numerators, so their gcd with the
        denominator stays 1 and no reduction is needed.
        """
        ctx = context(self.n)
        out = [0] * ctx.phi
        for c, row in zip(self.num, ctx._conj_sparse):
            if c:
                for i, r in row:
                    out[i] += c * r
        return _raw(self.n, tuple(out), self.den)

    # -- numeric evaluation --------------------------------------------------

    def enclosure(self, prec):
        """(re, im) RatIntervals guaranteed to contain this element's value."""
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
        scale = self.den << prec
        return (RatInterval(Fraction(lo, scale), Fraction(hi, scale)),
                RatInterval(Fraction(ilo, scale), Fraction(ihi, scale)))

    def to_complex(self):
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
            coeffs.append(Fraction(_dec_int(num), _dec_int(den)))
        return cls(n, coeffs)


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_sub(a, b):
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_divmod(a, b):
    a = list(a)
    q = [_ZERO] * max(1, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        q[i] = c
        if c:
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return _trim(q), _trim(a[: len(b) - 1])


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
    which it does once the precision reaches ``_sign_cap(z)`` bits.
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
        re, _ = z.enclosure(prec)
        if re.lo > 0:
            return 1
        if re.hi < 0:
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
        zz = (_ZERO, _ZERO)
        return zz, zz
    msum = Fraction(sum(abs(a) for a in z.num), z.den)
    mbits = max(0, msum.numerator.bit_length() - msum.denominator.bit_length() + 1)
    work = precision_bits + 16 + mbits
    re, im = z.enclosure(work)
    grid = 1 << (precision_bits + 2)

    def outward(ival):
        lo_n = ival.lo.numerator * grid
        lo = Fraction((lo_n // ival.lo.denominator) - 1, grid)
        hi_n = ival.hi.numerator * grid
        hi = Fraction(-((-hi_n) // ival.hi.denominator) + 1, grid)
        return lo, hi

    return outward(re), outward(im)
