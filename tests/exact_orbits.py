"""Reference orbit loops for the tests: one exact selection per step.

``obc.dynamics.iterate`` is the library's one orbit loop; ``step``,
``periodic.code_endpoint`` and ``atlas.scr_region`` read its record.
These loops do not call it.  ``reference_step`` selects each vertex with
``select_vertex`` at the point itself and reduces the new point by the full
gcd of its numerators and denominator; ``reference_iterate`` records an
orbit of such steps and hashes every point to find a repeat;
``endpoint_by_wedges`` confirms each expected label by the exact wedge
test alone (``in_wedge``), selecting nothing.
"""

from fractions import Fraction

from obc.dynamics import OrbitRecord, reflect_contract, select_vertex
from obc.errors import ObcError, StepDomainError
from obc.field import _reduced
from obc.geometry import orientation


def reference_step(P, lam, x):
    """(y, label): one application of the map at x, exactly."""
    p, q = lam.numerator, lam.denominator
    sel = select_vertex(P, x)
    if sel.kind != "vertex":
        raise StepDomainError(sel.kind)
    v = P.vertices[sel.label - 1]
    a, b = (p + q) * x.den, p * v.den
    num = [a * vk - b * xk for vk, xk in zip(v.num, x.num)]
    return _reduced(x.n, num, q * v.den * x.den), sel.label


def reference_iterate(P, lam, x, max_steps):
    """The orbit record of ``iterate``, one ``reference_step`` per step and
    every point hashed for the repeat check."""
    lam = Fraction(lam)
    rec = OrbitRecord(start=x, lam=lam, points=[x])
    seen = {x: 0}
    cur = x
    for k in range(max_steps):
        try:
            cur, label = reference_step(P, lam, cur)
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
    return rec


def in_wedge(P, a, z):
    """True iff z lies strictly inside the wedge of label a (1-based), so
    selects v_a off the singular set: strictly left of the edge leaving
    v_a and strictly right of the edge entering it (exact ``orientation``)."""
    vs = P.vertices
    return (orientation(vs[a - 1], vs[a % len(vs)], z) > 0
            and orientation(vs[a - 2], vs[a - 1], z) < 0)


def endpoint_by_wedges(P, lam, z, word):
    """The point the orbit of z reaches after the labels of word, each taken
    strictly inside its vertex wedge (``in_wedge``); None as soon as a label
    is another or the point is on no wedge's inside."""
    lam = Fraction(lam)
    vs = P.vertices
    for a in word:
        if a > len(vs) or not in_wedge(P, a, z):
            return None
        z = reflect_contract(vs[a - 1], lam.numerator, lam.denominator, z)
    return z


def scr_word_by_steps(P, lam, x, depth):
    """x's first ``depth`` labels, one ``reference_step`` per symbol, with
    the errors that ``atlas.scr_region`` raises."""
    lam = Fraction(lam)
    word = []
    cur = x
    for i in range(depth):
        try:
            cur, label = reference_step(P, lam, cur)
        except StepDomainError as exc:
            if i == 0:
                raise ObcError(f"point is {exc.kind}; its code is undefined") from exc
            raise ObcError(f"orbit hits the singular set at step {i}") from exc
        word.append(label)
    return word
