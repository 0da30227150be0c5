"""Property tests of the field kernel against sympy as an independent oracle."""

import math
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from obc.field import CycloNum, euler_phi, sign_of_real

_ORACLE_N = (3, 4, 5, 7, 8, 12)
_X = sympy.Symbol("x")

_coeff = st.one_of(
    st.integers(-60, 60),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)),
    # coefficients at height, where the Galois product's coefficients grow
    st.integers(-2**200, 2**200),
)


def _element(data, n, nonzero=False):
    coeffs = data.draw(st.lists(_coeff, min_size=euler_phi(n), max_size=euler_phi(n)))
    z = CycloNum(n, coeffs)
    if nonzero and z.is_zero():
        z = CycloNum.one(n)
    return z


def _to_poly(z):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(z.coeffs)],
                      _X, domain="QQ")


def _from_poly(n, p):
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    return CycloNum(n, cs + [0] * (euler_phi(n) - len(cs)))


def _assert_normal_form(z):
    assert z.den > 0
    assert math.gcd(z.den, *z.num) == 1
    if z.is_zero():
        assert z.den == 1
    for a, c in zip(z.num, z.coeffs):
        assert type(c) is Fraction
        assert math.gcd(c.numerator, c.denominator) == 1
        assert c == Fraction(a, z.den)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ORACLE_N), st.data())
def test_ring_ops_match_sympy(n, data):
    a, b = _element(data, n), _element(data, n, nonzero=True)
    mod = sympy.Poly(sympy.cyclotomic_poly(n, _X), _X, domain="QQ")
    pa, pb = _to_poly(a), _to_poly(b)
    conj_a = sympy.Poly(pa.as_expr().subs(_X, _X ** (n - 1)), _X, domain="QQ")
    expected = {
        "+": pa + pb,
        "-": pa - pb,
        "*": pa * pb,
        "conj": conj_a,
        "inverse": pb.invert(mod),
    }
    got = {"+": a + b, "-": a - b, "*": a * b, "conj": a.conj(), "inverse": b.inverse()}
    for op, z in got.items():
        assert z == _from_poly(n, expected[op].rem(mod)), op
        _assert_normal_form(z)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ORACLE_N), st.data(), st.integers(1, 12))
def test_equal_values_share_one_normal_form(n, data, scale):
    a, w = _element(data, n), _element(data, n, nonzero=True)
    unreduced = f"{n}:" + ",".join(
        f"{c.numerator * scale}/{c.denominator * scale}" for c in a.coeffs)
    by_powers = CycloNum.zero(n)
    for k, c in enumerate(a.coeffs):
        by_powers = by_powers + CycloNum.zeta(n, k) * c
    ways = [CycloNum.parse(unreduced), by_powers, (a * w) / w, (a + w) - w,
            a.conj().conj(), CycloNum(n, list(a.coeffs))]
    for z in ways:
        assert z == a
        assert hash(z) == hash(a)
        assert z.serialize() == a.serialize()
        _assert_normal_form(z)


def _convergents(x, count):
    h0, h1, k0, k1 = 0, 1, 1, 0
    out = []
    for _ in range(count):
        q = int(mp.floor(x))
        h0, h1 = h1, q * h1 + h0
        k0, k1 = k1, q * k1 + k0
        out.append(Fraction(h1, k1))
        x = 1 / (x - q)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((5, 7, 8, 12)), st.integers(0, 39), st.integers(-1, 1))
def test_sign_near_zero_matches_sympy(n, k, nudge):
    # p/q approximations of zeta + conj(zeta) = 2 cos(2 pi/n), nudged by 1/q^2
    with mp.workdps(250):
        x = 2 * mp.cos(2 * mp.pi / n)
        p_q = _convergents(x, 40)[k]
    p_q += Fraction(nudge, p_q.denominator ** 2)
    r = CycloNum.zeta(n) + CycloNum.zeta(n, n - 1)
    ref = sympy.N(2 * sympy.cos(2 * sympy.pi / n) - sympy.Rational(p_q.numerator, p_q.denominator),
                  200)
    assert abs(ref) > sympy.Float(10) ** -150
    assert sign_of_real(r - p_q) == (1 if ref > 0 else -1)
