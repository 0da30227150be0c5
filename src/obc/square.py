"""Verification machinery for the square: the threshold polynomials
p_k(t) = 1 - t^(k-1) - t^k + t^(2k), their roots lambda_k, closed-form
periodic coordinates, capture-certified attractor counts, and the
degenerate boundary orbit.

The square here has vertices (+-1, +-1) in Q(i), labeled counterclockwise
from (1, 1); the index-k orbit has period 4k and its tile is the unit-side
grid square centered at (-2k, 0).

Attractor counts follow random starts in floats and stop each orbit once
its float point lies in a certified capture box: a closed box around a
cycle phase's periodic point whose corners, checked exactly once per
phase, follow the cycle's word, so that every point of the box follows it
forever.  Per sample, capture costs four float comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import Code, float_select, iterate, orbit_bound
from .field import CycloNum
from .geometry import ConvexPolygon, cross_scaled, from_scaled, imag_scaled, real_part
from .periodic import code_endpoint, code_fixed_point, validate_periodic


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


def lambda_k(k, tol=Fraction(1, 10**12)):
    """Isolating rational interval for the unique root of p_k in [0, 1).

    Bisection with exact sign evaluation; for k = 1 the root is 0 exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if k == 1:
        return (Fraction(0), Fraction(0))
    lo = Fraction(0)
    hi = None
    probe = Fraction(1, 2)
    while hi is None:
        cand = 1 - probe
        if p_eval(k, cand) < 0:
            hi = cand
        else:
            lo = max(lo, cand)
            probe /= 2
            if probe < Fraction(1, 2**80):  # pragma: no cover
                raise ArithmeticError("failed to bracket the root")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        v = p_eval(k, mid)
        if v == 0:
            return (mid, mid)
        if v > 0:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def existence_condition(k, lam):
    """True iff the index-k periodic orbit can exist: p_k(lam) <= 0."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("need 0 < lam < 1")
    return p_eval(k, lam) <= 0


def sk_code(k):
    """Length-4k code of the index-k orbit, read off the orbit of (-2k, 0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rec = iterate(_sq(), 1, from_scaled(4, -2 * k, 0), 4 * k + 1)
    if rec.termination != "exact_repeat" or rec.period != 4 * k:  # pragma: no cover
        raise ArithmeticError(f"unexpected orbit structure for index {k}")
    return Code(rec.cycle_code())


def qk_closed_form(k, lam):
    """Closed-form coordinates of the index-k fixed point.

    x = -(1+lam)(1-lam^(2k)) / ((1-lam)(1+lam^(2k))),
    y =  (1+lam)(1-lam^k)^2 / ((1-lam)(1+lam^(2k))); at lam = 1 the curve
    extends continuously to the tile center (-2k, 0).
    """
    lam = Fraction(lam)
    if not 0 < lam <= 1:
        raise ValueError("need 0 < lam <= 1")
    if lam == 1:
        return from_scaled(4, -2 * k, 0)
    den = (1 - lam) * (1 + lam ** (2 * k))
    x = -(1 + lam) * (1 - lam ** (2 * k)) / den
    y = (1 + lam) * (1 - lam**k) ** 2 / den
    return from_scaled(4, x, y)


def yhat(k, lam):
    """y-coordinate of the last subdivision point on the rotated segment:
    the convex combination ((1-t^(k-1)) y_k + (t^(k-1)-t^k) x_k) / (1-t^k)."""
    lam = Fraction(lam)
    q = qk_closed_form(k, lam)
    x = real_part(q).coeffs[0]
    y = imag_scaled(q).coeffs[0]
    den = 1 - lam**k
    return ((1 - lam ** (k - 1)) * y + (lam ** (k - 1) - lam**k) * x) / den


@dataclass
class TransitionCheck:
    index: int
    vertex_label: int
    identity_ok: bool
    wedge_margins: tuple  # float signed margins of the two wedge constraints


@dataclass
class DegenerateOrbit:
    """The 4k-point boundary orbit built from the index-k fixed point by
    quarter-turn symmetry and geometric subdivision of one segment."""

    k: int
    lam: Fraction
    E: list
    F: list
    G: list
    H: list
    transitions: list

    def all_identities_hold(self):
        return all(t.identity_ok for t in self.transitions)

    def worst_margin(self):
        return min(min(t.wedge_margins) for t in self.transitions)


def _rot90(z):
    # counterclockwise quarter turn: multiply by i = zeta_4
    return z * CycloNum.zeta(4)


# vertex the points of each family reflect on: E -> (1,-1), F -> (1,1),
# G -> (-1,1), H -> (-1,-1); labels in the CCW square are 4, 1, 2, 3.
_FAMILY_VERTEX_LABEL = (4, 1, 2, 3)


def degenerate_orbit(k, lam):
    """Construct the 4k points and verify every transition.

    Each transition is checked two ways: the affine identity
    (1+lam) * v - lam * p == p_next holds exactly (it is an algebraic
    identity in lam), and the wedge membership margins of p at its coded
    vertex are reported (they vanish exactly at the threshold root, so for
    a rational lam near it they are small but nonzero).
    """
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("need 0 < lam < 1")
    H0 = qk_closed_form(k, lam)
    E0 = _rot90(H0)
    F0 = _rot90(E0)
    G0 = _rot90(F0)
    den = 1 - lam**k
    E = [E0]
    for j in range(1, k):
        t = (1 - lam**j) / den
        E.append(E0 + (H0 - E0) * t)
    F = [_rot90(z) for z in E]
    G = [_rot90(z) for z in F]
    H = [_rot90(z) for z in G]
    fams = (E, F, G, H)

    def succ(fam, j):
        # family advances by a half turn each step; index k wraps to the
        # quarter-turn-behind family at index 0 (E_k = H_0 and its rotations)
        fam2, j2 = (fam + 2) % 4, j + 1
        if j2 == k:
            fam2, j2 = (fam2 - 1) % 4, 0
        return fam2, j2

    P = _sq()
    transitions = []
    fam, j = 3, 0  # start at H_0
    for i in range(4 * k):
        cur = fams[fam][j]
        fam2, j2 = succ(fam, j)
        nxt = fams[fam2][j2]
        label = _FAMILY_VERTEX_LABEL[fam]
        v = P.vertices[label - 1]
        identity_ok = (v * (1 + lam) - cur * lam) == nxt
        vs = P.vertices
        nxt_v = vs[label % 4]
        prv_v = vs[(label - 2) % 4]
        m1 = cross_scaled(v - cur, nxt_v - cur).to_complex().real
        m2 = cross_scaled(v - cur, prv_v - cur).to_complex().real
        transitions.append(TransitionCheck(i, label, identity_ok, (m1, m2)))
        fam, j = fam2, j2
    return DegenerateOrbit(k, lam, E, F, G, H, transitions)


# -- attractor counting -------------------------------------------------------


def _capture_box(P, W, lam):
    """A closed box (x0, x1, y0, y1) of float bounds whose points all follow
    the even word W forever at rate lam, or None.

    The box is centred at the floats of W's periodic point q_W and halves
    from half-width 1/2 until its exact (dyadic) bounds enclose q_W strictly
    and each corner follows W for |W| steps (``code_endpoint``).  The corners
    then lie in the open convex region R_W of points whose first |W| labels
    are W, so the box does too; and as F_W(z) = q_W + lam^|W| (z - q_W) lies
    on the segment [q_W, z], F_W maps the box into itself.  None when q_W is
    not real (``validate_periodic``) or no half-width down to 2^-40 works.
    """
    if not validate_periodic(P, W, lam):
        return None
    q = code_fixed_point(P, W, lam)
    qx, qy = real_part(q).coeffs[0], imag_scaled(q).coeffs[0]
    cx, cy = float(qx), float(qy)
    for e in range(1, 41):
        h = 2.0**-e
        x0, x1, y0, y1 = cx - h, cx + h, cy - h, cy + h
        if not (Fraction(x0) < qx < Fraction(x1) and Fraction(y0) < qy < Fraction(y1)):
            continue
        if all(code_endpoint(P, lam, from_scaled(4, Fraction(x), Fraction(y)), W) is not None
               for x in (x0, x1) for y in (y0, y1)):
            return x0, x1, y0, y1
    return None


def _captured_word(P, x, y, lam, max_steps, boxes):
    """Canonical word of the cycle that provably captures the float orbit
    of (x, y), or None if none does within max_steps.

    Every 16 float steps, p is the least period <= 120 of the recent labels
    and W the last p labels, doubled if odd.  The orbit stops once the float
    point lies in W's certified capture box (``_capture_box``): four float
    comparisons, which are exact for the dyadic point the float stands for,
    and every point of the box follows W forever.  ``boxes`` maps each tail
    of p labels to its box and canonical word, both computed once.
    """
    verts = P.float_vertices()
    lamf = float(lam)
    code = []
    for i in range(1, max_steps + 1):
        lbl = float_select(verts, x, y)
        if lbl is None:
            return None
        vx, vy = verts[lbl - 1]
        x = (1 + lamf) * vx - lamf * x
        y = (1 + lamf) * vy - lamf * y
        code.append(lbl)
        if i % 16:
            continue
        p = next((p for p in range(1, min(120, i // 2) + 1)
                  if code[-p:] == code[-2 * p : -p]), None)
        if p is None:
            continue
        key = tuple(code[-p:])
        if key not in boxes:
            tail = Code(key)
            boxes[key] = _capture_box(P, tail.doubled_even(), lam), tail.canonical()
        box, word = boxes[key]
        if box is not None and box[0] <= x <= box[1] and box[2] <= y <= box[3]:
            return word
    return None


def count_attractors(lam, samples=200, max_steps=10_000, seed=0):
    """Number of distinct periodic attractors that capture random starts.

    Each counted attractor is certified: its periodic point is real and at
    least one sample's orbit reaches a point of its certified capture box,
    which provably follows its code forever (see ``_capture_box``).
    Neither the float prefix of that orbit nor the absence of further
    attractors is proved.
    """
    count, _, _ = count_attractors_detail(lam, samples, max_steps, seed)
    return count


def count_attractors_detail(lam, samples=200, max_steps=10_000, seed=0):
    """(count, sorted canonical words, undecided) over ``samples`` seeded
    starts in the trapping disc outside the square.

    A sample counts toward a word when its float orbit enters that word's
    capture box (``_captured_word``); the boxes are certified once per
    cycle phase and shared by all samples.  A sample is undecided when no
    box captures its orbit within ``max_steps`` float steps, or when the
    float screen meets a wedge boundary.
    """
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("need 0 < lam < 1")
    radius = orbit_bound(_sq(), lam)
    rng = random.Random(seed)
    boxes = {}
    found = set()
    undecided = 0
    for _ in range(samples):
        while True:
            x = rng.uniform(-radius, radius)
            y = rng.uniform(-radius, radius)
            if x * x + y * y <= radius * radius and max(abs(x), abs(y)) > 1.0:
                break
        word = _captured_word(_sq(), x, y, lam, max_steps, boxes)
        if word is None:
            undecided += 1
        else:
            found.add(word)
    return len(found), sorted(found), undecided
