"""Cyclotomic field arithmetic, certified signs, enclosures, serialization."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp

import obc
from obc.errors import ConductorMismatchError, NotRealError
from obc import field
from obc.dynamics import Selection, _select_margin, float_select, select_vertex
from obc.field import (
    _TRIG_WIDTH_BITS,
    FLOAT_TRIG_ERROR,
    MAX_CONDUCTOR,
    Cyclotomic,
    CycloNum,
    _sign_cap,
    approximate,
    cyclotomic_polynomial,
    euler_phi,
    sign_of_real,
)
from obc.geometry import from_scaled, regular_ngon

rng = random.Random(20240817)


def rand_elt(n, span=9, den=7):
    phi = euler_phi(n)
    return CycloNum(n, [Fraction(rng.randint(-span, span), rng.randint(1, den))
                        for _ in range(phi)])


def ref_real_value(z, dps=100):
    mp.dps = dps
    return sum(
        mp.mpf(c.numerator) / c.denominator * mp.cos(2 * mp.pi * k / z.n)
        for k, c in enumerate(z.coeffs) if c
    )


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(7) == (1, 1, 1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_defining_relations():
    z4 = CycloNum.zeta(4)
    assert z4 * z4 == CycloNum.from_rational(4, -1)
    s = CycloNum.one(5)
    for k in range(1, 5):
        s = s + CycloNum.zeta(5, k)
    assert s.is_zero()
    z7 = CycloNum.zeta(7)
    assert z7 * z7.conj() == CycloNum.one(7)


def test_conductor_mismatch_and_zero_division():
    with pytest.raises(ConductorMismatchError):
        CycloNum.zeta(4) + CycloNum.zeta(5)
    with pytest.raises(ZeroDivisionError):
        CycloNum.zeta(4) / CycloNum.zero(4)
    with pytest.raises(ZeroDivisionError):
        CycloNum.zero(5).inverse()


def test_field_axioms_random():
    for n in (3, 4, 5, 6, 7, 8, 9, 12):
        for _ in range(40):
            a, b, c = rand_elt(n), rand_elt(n), rand_elt(n)
            assert a.conj().conj() == a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert (a * b).conj() == a.conj() * b.conj()
            if not b.is_zero():
                assert (a * b) / b == a


def test_sign_examples():
    assert sign_of_real(CycloNum.zero(9)) == 0
    z7 = CycloNum.zeta(7)
    r = z7 + z7.conj()  # 2 cos(2*pi/7)
    assert sign_of_real(r) == 1
    assert abs(ref_real_value(r, 50) - mp.mpf("1.2469796")) < 1e-6
    r5 = CycloNum.zeta(5, 2) + CycloNum.zeta(5, 3)  # 2 cos(4*pi/5)
    assert sign_of_real(r5) == -1
    assert abs(ref_real_value(r5, 50) + mp.mpf("1.6180339")) < 1e-6


def test_sign_requires_real():
    with pytest.raises(NotRealError):
        sign_of_real(CycloNum.zeta(5))


def test_sign_against_reference_floats():
    for n in range(3, 13):
        for _ in range(300):
            w = rand_elt(n)
            z = w + w.conj()
            got = sign_of_real(z)
            ref = ref_real_value(z)
            if abs(ref) > mp.mpf(10) ** -30:
                assert got == (1 if ref > 0 else -1), z.serialize()
            if z.is_zero():
                assert got == 0


def test_constructed_zeros_detected_by_normal_form():
    for n in (3, 4, 5, 7, 8, 11, 12):
        w, v = rand_elt(n), rand_elt(n)
        assert (w * v - v * w).is_zero()
        assert (w - w).is_zero()
        if not v.is_zero():
            assert (w * v / v - w).is_zero()
        # evaluate the modulus polynomial at zeta: identically zero
        acc = CycloNum.zero(n)
        for k, c in enumerate(cyclotomic_polynomial(n)):
            acc = acc + CycloNum.zeta(n, k) * c
        assert acc.is_zero()
        assert sign_of_real((acc * w) + (acc * w).conj()) == 0


def test_trig_tables_enclose_mpmath_and_keep_their_width():
    precs = (64, 77, 128, 1024)
    for n in range(3, MAX_CONDUCTOR + 1):
        ctx = Cyclotomic(n)  # not the shared context: its caches stay small
        tables = [ctx.fixed_trig(p) for p in precs]
        for k in range(ctx.phi):
            # exact at the quarter turns, where 2k/n is a multiple of 1/2
            with mp.workprec(max(precs) + 100):
                c, s = mp.cospi(mp.mpf(2 * k) / n), mp.sinpi(mp.mpf(2 * k) / n)
            for p, table in zip(precs, tables):
                clo, chi, slo, shi = table[k]
                assert clo <= mp.ldexp(c, p) <= chi, (n, k, p)
                assert slo <= mp.ldexp(s, p) <= shi, (n, k, p)
                assert max(chi - clo, shi - slo) <= 1 << _TRIG_WIDTH_BITS, (n, k, p)


def test_float_trig_tables_are_proved_within_their_error():
    for n in range(3, MAX_CONDUCTOR + 1):
        ctx = Cyclotomic(n)
        assert ctx.to_complex_error() == (ctx.phi + 2) * 2.0**-53 + FLOAT_TRIG_ERROR


def test_float_sine_is_the_proved_table_entry():
    # the one float of sin(2 pi/n) read by search_tiles, captured_word and
    # from_xy_approx: libm's value at these n, refused when the table entry
    # is off by more than FLOAT_TRIG_ERROR
    for n in (3, 4, 5, 6, 7, 8, 10, 12):
        assert Cyclotomic(n).float_sine() == math.sin(2.0 * math.pi / n)
    ctx = Cyclotomic(7)
    c, s = ctx._float_trig[1]
    ctx._float_trig = [ctx._float_trig[0], (c, s + 2.0**-40)] + ctx._float_trig[2:]
    with pytest.raises(ArithmeticError):
        ctx.float_sine()


@pytest.mark.parametrize("shift", [2.0**-48, 2.0**-40])
def test_float_trig_check_accepts_within_and_rejects_beyond_its_error(monkeypatch, shift):
    # every entry errs by at most 2^-49.8, so a 2^-48 shift stays within
    # FLOAT_TRIG_ERROR = 2^-47 and the float filter still certifies; a 2^-40
    # shift does not, and no vertex is certified
    ctx = Cyclotomic(7)
    table = list(ctx._float_trig)
    c, s = table[3]
    table[3] = (c + shift, s)
    ctx._float_trig = table
    monkeypatch.setitem(field._CONTEXTS, 7, ctx)
    P, z = regular_ngon(7), from_scaled(7, 3, 0)
    if shift < FLOAT_TRIG_ERROR:
        fx, fy, e = z.float_image()
        margin = _select_margin(max(abs(fx), abs(fy)) + P.float_extent(), e)
        assert margin < math.inf
        row = float_select(P.float_wedges()[0], fx, fy, margin)
        assert row is not None
        assert select_vertex(P, z) == Selection("vertex", row[0])
        return
    with pytest.raises(ArithmeticError):
        z.float_image()
    with pytest.raises(ArithmeticError):
        select_vertex(P, z)


def test_trig_table_is_exact_at_angle_zero():
    for n in (3, 4, 5, 7, 12, MAX_CONDUCTOR):
        for p in (64, 77, 200):
            assert Cyclotomic(n).fixed_trig(p)[0] == (1 << p, 1 << p, 0, 0)


def test_signs_and_enclosures_without_mpmath():
    # the library computes its trig tables in integers; mpmath is a test reference only
    script = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from obc import CycloNum, approximate\n"
        "from obc.atlas import load_atlas\n"
        "atlas = load_atlas(sys.argv[1])\n"
        "assert not atlas.provenance['diagnostics'] and atlas.n == 7\n"
        "(lo, hi), _ = approximate(CycloNum.zeta(5) + CycloNum.zeta(5, 4), 64)\n"
        "assert (2 * lo + 1) ** 2 < 5 < (2 * hi + 1) ** 2  # 2 cos(2 pi/5) = (5^(1/2) - 1)/2\n"
        "print(len(atlas.entries))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(obc.__file__)))
    fixture = os.path.join(os.path.dirname(__file__), "data", "septagon.atlas")
    proc = subprocess.run([sys.executable, "-c", script, fixture], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "8\n"


def test_approximate_zeta4_and_zero_sum():
    z4 = CycloNum.zeta(4)
    (rl, rh), (il, ih) = approximate(z4, 32)
    assert rl <= 0 <= rh and il <= 1 <= ih
    assert rh - rl < Fraction(1, 2**28)
    s = CycloNum.one(3) + CycloNum.zeta(3) + CycloNum.zeta(3, 2)
    (rl, rh), (il, ih) = approximate(s, 40)
    assert rl == rh == il == ih == 0  # exact zero by normal form
    assert rh - rl < Fraction(1, 2**36)


def test_approximate_cos72():
    z5 = CycloNum.zeta(5)
    (rl, rh), _ = approximate(z5, 64)
    mp.dps = 40
    truth = mp.cos(2 * mp.pi / 5)
    assert mp.mpf(rl.numerator) / rl.denominator <= truth <= mp.mpf(rh.numerator) / rh.denominator
    assert abs(float(rl) - 0.30902) < 1e-5


def test_approximate_nesting_and_width_decay():
    for n in (5, 7, 12):
        for _ in range(20):
            z = rand_elt(n, span=99, den=13)
            (r1l, r1h), (i1l, i1h) = approximate(z, 24)
            (r2l, r2h), (i2l, i2h) = approximate(z, 48)
            assert r1l <= r2l <= r2h <= r1h
            assert i1l <= i2l <= i2h <= i1h
            if not z.is_zero():
                assert (r2h - r2l) <= (r1h - r1l)


def test_approximate_precision_floor():
    with pytest.raises(ValueError):
        approximate(CycloNum.zeta(5), 8)


def test_serialization_round_trip():
    for n in (3, 5, 8, 12):
        for _ in range(25):
            z = rand_elt(n, span=10**6, den=10**4)
            assert CycloNum.parse(z.serialize()) == z
    assert CycloNum.zeta(4).serialize() == "4:0/1,1/1"
    with pytest.raises(ValueError):
        CycloNum.parse("5:1,2")
    with pytest.raises(ValueError):
        CycloNum.parse("garbage")


def test_pow_and_scalars():
    z = CycloNum.zeta(7)
    assert z**7 == CycloNum.one(7)
    assert z**-1 == z.conj()
    a = rand_elt(7)
    assert a * 3 == a + a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a


def _golden_gap(m):
    """(zeta + conj zeta) - F_m/F_(m+1) in Q(zeta_5): 2 cos(2 pi/5) = 1/golden ratio."""
    a, b = 0, 1  # F_0, F_1
    for _ in range(m):
        a, b = b, a + b
    r = CycloNum.zeta(5)
    return r + r.conj() - Fraction(a, b)


def test_sign_cap_is_derived_from_height():
    # this input needs about 2^17 bits, past the old fixed cap of 2^16
    assert _sign_cap(_golden_gap(48000)) > 1 << 16


def test_sign_exact_near_golden_ratio():
    # F_(m+1)/F_m overshoots the golden ratio for even m and undershoots for odd m
    assert sign_of_real(_golden_gap(2000)) == 1
    assert sign_of_real(_golden_gap(2001)) == -1


_HUGE = 7**118000  # about 10^5 digits


def _huge_element():
    return CycloNum(7, [Fraction(-_HUGE, 3), 0, Fraction(1, _HUGE + 2), 5, 0, Fraction(_HUGE, 11)])


def test_serialization_past_int_digit_limit():
    big = CycloNum.from_rational(5, 10**5000)
    assert CycloNum.parse(big.serialize()) == big
    z = _huge_element()
    assert CycloNum.parse(z.serialize()) == z
    with pytest.raises(ValueError):
        CycloNum.parse("5:" + "1" * 5000 + "x/1,0/1,0/1,0/1")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int-to-str digit limit")
def test_huge_serialization_matches_str_and_keeps_limit():
    limit = sys.get_int_max_str_digits()
    z = _huge_element()
    text = z.serialize()
    CycloNum.parse(text)
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert text == f"7:{-_HUGE}/3,0/1,1/{_HUGE + 2},5/1,0/1,{_HUGE}/11"
    finally:
        sys.set_int_max_str_digits(limit)
