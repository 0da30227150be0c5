"""Verification machinery for the square: the threshold polynomials
p_k(t) = 1 - t^(k-1) - t^k + t^(2k), their roots lambda_k, the index-k
codes and attractor counts.

The square here has vertices (+-1, +-1) in Q(i), labeled counterclockwise
from (1, 1); the index-k orbit has period 4k and its tile is the unit-side
grid square centered at (-2k, 0).  Whether its cycle exists at a rate is
decided exactly by ``periodic.follows_code`` at the code's fixed point.

Threshold brackets bisect in integers on the dyadic grid (``lambda_k``).
Attractor counts sample random starts outside the square and hand each
float orbit to the polygon-generic capture of ``periodic.captured_word``,
which stops it once it enters a certified capture region, the same-code
region of a cycle phase: every point of its interior provably follows the
cycle forever.  One capture state per rate (``periodic.Captures``) holds
the regions certified so far for all samples, each behind a float box
that provably encloses it, so most steps are turned away by four float
comparisons.  Not proved: the float orbit before capture, and that no
attractor was missed.
"""

import random
from fractions import Fraction

from .dynamics import orbit_bound, seed_code
from .geometry import ConvexPolygon, from_scaled
from .periodic import Captures, captured_word


def square_polygon():
    """The square with vertices (1,1), (-1,1), (-1,-1), (1,-1), CCW."""
    return ConvexPolygon(
        [from_scaled(4, 1, 1), from_scaled(4, -1, 1),
         from_scaled(4, -1, -1), from_scaled(4, 1, -1)]
    )


_SQUARE = None


def _sq():
    global _SQUARE
    if _SQUARE is None:
        _SQUARE = square_polygon()
    return _SQUARE


def p_eval(k, lam):
    """p_k(lam) = 1 - lam^(k-1) - lam^k + lam^(2k), exactly."""
    lam = Fraction(lam)
    return 1 - lam ** (k - 1) - lam**k + lam ** (2 * k)


def p_coeffs(k):
    """Coefficient list of p_k, low degree first."""
    out = [Fraction(0)] * (2 * k + 1)
    out[0] += 1
    out[k - 1] -= 1
    out[k] -= 1
    out[2 * k] += 1
    return out


def existence_identity_holds(k):
    """(1+t)(1-t^k)^2 - (1-t)(1+t^(2k)) == 2t*p_k(t) as exact polynomials.

    This is the corrected form of the threshold condition: the y-coordinate
    bound y_k(lam) <= 1 is equivalent to p_k(lam) <= 0.
    """
    one_minus_tk = [1] + [0] * (k - 1) + [-1]
    lhs = _poly_mul([1, 1], _poly_mul(one_minus_tk, one_minus_tk))
    # subtract (1 - t)(1 + t^2k) = 1 - t + t^2k - t^(2k+1)
    lhs[0] -= 1
    lhs[1] += 1
    lhs[2 * k] -= 1
    lhs[2 * k + 1] += 1
    return lhs == [0] + [2 * c for c in p_coeffs(k)]


def _poly_mul(a, b):
    """Product of integer polynomials, coefficient lists low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _p_sign(k, m, d):
    """Sign of p_k(m/d) for integers m and d > 0: the sign of
    d^(2k) p_k(m/d) = d^(2k) - m^(k-1) d^(k+1) - m^k d^k + m^(2k)."""
    mk1 = m ** (k - 1)
    mk = mk1 * m
    dk = d**k
    v = dk * dk - mk1 * dk * d - mk * dk + mk * mk
    return (v > 0) - (v < 0)


def lambda_k(k, tol=Fraction(1, 10**12)):
    """Isolating rational interval for the unique root of p_k in [0, 1).

    Bisection with exact sign evaluation (``_p_sign``) on the dyadic grid:
    lo = a / 2^J and hi = b / 2^J in integers.  First hi = 1 - 2^-j for the
    least j >= 1 with p_k(hi) < 0, and lo = 1 - 2^(1-j); then each step
    halves [lo, hi] until hi - lo <= tol.  For k = 1 the root is 0 exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if k == 1:
        return (Fraction(0), Fraction(0))
    for j in range(1, 81):
        d = 1 << j
        if _p_sign(k, d - 1, d) < 0:
            break
    else:  # pragma: no cover
        raise ArithmeticError("failed to bracket the root")
    a, b = d - 2, d - 1
    tn, td = tol.numerator, tol.denominator
    while (b - a) * td > tn * d:
        m = a + b
        d <<= 1
        s = _p_sign(k, m, d)
        if s == 0:
            return (Fraction(m, d), Fraction(m, d))
        if s > 0:
            a, b = m, 2 * b
        else:
            a, b = 2 * a, m
    return (Fraction(a, d), Fraction(b, d))


def existence_condition(k, lam):
    """True iff the index-k periodic orbit can exist: p_k(lam) <= 0."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("need 0 < lam < 1")
    return _p_sign(k, lam.numerator, lam.denominator) <= 0


def sk_code(k):
    """Length-4k code of the index-k orbit, read off the orbit of (-2k, 0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    code = seed_code(_sq(), from_scaled(4, -2 * k, 0), 4 * k + 1)
    if len(code) != 4 * k:  # pragma: no cover
        raise ArithmeticError(f"unexpected orbit structure for index {k}")
    return code


# -- attractor counting -------------------------------------------------------


def count_attractors(lam, samples=200, max_steps=10_000, seed=0):
    """Number of distinct periodic attractors that capture random starts.

    Each counted attractor is certified: its periodic point is real and at
    least one sample's orbit reaches an interior point of one of its
    certified capture regions, which provably follows its code forever (see
    ``periodic.capture_region``).  Neither the float prefix of that orbit
    nor the absence of further attractors is proved.
    """
    count, _, _ = count_attractors_detail(lam, samples, max_steps, seed)
    return count


def count_attractors_detail(lam, samples=200, max_steps=10_000, seed=0):
    """(count, sorted canonical words, undecided) over ``samples`` seeded
    starts in the trapping disc outside the square.

    A sample counts toward a word when its float orbit enters a capture
    region of that word (``periodic.captured_word``), tested at every float
    step, first against the region's proved float box.  The regions live in
    one ``periodic.Captures`` state built for the rate: a region is
    certified at most once per cycle phase, when a sample's period search
    first finds that phase, and shared by all samples.  A sample is
    undecided when no region captures its orbit within ``max_steps`` float
    steps, or when the float screen meets a wedge boundary.
    """
    captures = Captures(_sq(), lam)
    radius = orbit_bound(_sq(), captures.lam)
    rng = random.Random(seed)
    found = set()
    undecided = 0
    for _ in range(samples):
        while True:
            x = rng.uniform(-radius, radius)
            y = rng.uniform(-radius, radius)
            if x * x + y * y <= radius * radius and max(abs(x), abs(y)) > 1.0:
                break
        word = captured_word(captures, x, y, max_steps)
        if word is None:
            undecided += 1
        else:
            found.add(word)
    return len(found), sorted(found), undecided
