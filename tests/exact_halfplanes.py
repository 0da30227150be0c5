"""Reference half-plane intersection for the tests: exact Sutherland-Hodgman.

Every side is an exact sign of a*x + b*ytilde + c and every crossing is
p + s*(q - p) with s = f(p)/(f(p) - f(q)), one field inverse each; no float
is read.  It keeps ``obc.geometry.intersect_halfplanes``'s contract (the same
box, the same kinds), so the library's filtered clip must return the same
vertex sequence, clip for clip.  Its skip of a half-plane implied by a
clipped one with the identical normal is the reference for the skip of
``obc.periodic.code_region``.  ``locate_by_orientation`` is the reference for
``ConvexPolygon.locate``: the exact orientation of every edge and the point.
"""

from fractions import Fraction

from obc.field import CycloNum, sign_of_real
from obc.geometry import ConvexPolygon, RegionResult, _auto_half_width, _half_eta, orientation


def clip(pairs, hp):
    """Clip of a convex CCW chain of (x, ytilde) pairs by the closed half-plane."""
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
            s = vals[i] / (vals[i] - vals[j])
            (x0, t0), (x1, t1) = pairs[i], pairs[j]
            out.append((x0 + (x1 - x0) * s, t0 + (t1 - t0) * s))
    return out


def clipped_pairs(constraints, half_width=None, skip=True):
    """The final chain of (x, ytilde) pairs (or [] when a clip empties it),
    the box half-width w as a field element, and the number of clips.

    With ``skip`` False every half-plane clips, in order."""
    constraints = list(constraints)
    n = constraints[0].a.n
    if half_width is None:
        half_width = _auto_half_width(constraints)
    w = CycloNum.from_rational(n, Fraction(half_width))
    pairs = [(-w, -w), (w, -w), (w, w), (-w, w)]
    tightest = {}
    clips = 0
    for hp in constraints:
        key = (hp.a, hp.b)
        least = tightest.get(key)
        if skip and least is not None and sign_of_real(hp.c - least, _checked=True) >= 0:
            continue
        tightest[key] = hp.c
        pairs = clip(pairs, hp)
        clips += 1
        if not pairs:
            break
    return pairs, w, clips


def intersect_halfplanes(constraints, half_width=None, skip=True):
    """(RegionResult, number of clips), as the library computes them."""
    constraints = list(constraints)
    if not constraints:
        return RegionResult("unbounded", None), 0
    pairs, w, clips = clipped_pairs(constraints, half_width, skip)
    if not pairs:
        return RegionResult("empty", None), clips
    if len(set(pairs)) < 3:
        return RegionResult("lower_dimensional", None), clips
    half_eta = _half_eta(w.n)
    poly = ConvexPolygon([x + half_eta * t for x, t in pairs], validate=False)
    if any(v == w or v == -w for p in pairs for v in p):
        return RegionResult("unbounded", poly), clips
    return RegionResult("polygon", poly), clips


def locate_by_orientation(P, z):
    """"interior" / "boundary" / "exterior" of the closed polygon P from the
    exact sign of cross(v[i+1] - v[i], z - v[i]) on every edge
    (``orientation``), no float read."""
    vs = P.vertices
    signs = [orientation(p, q, z) for p, q in zip(vs, vs[1:] + vs[:1])]
    if min(signs) < 0:
        return "exterior"
    return "boundary" if 0 in signs else "interior"
