"""Closed forms the tests compare library results against.

``unfold`` builds the unfolded base-point chain of a code, whose barycenter
``periodic.stability_limit`` must equal; ``qk_closed_form`` gives the
square's index-k fixed point, which ``periodic.code_fixed_point`` of
``square.sk_code(k)`` must equal.
"""

from dataclasses import dataclass
from fractions import Fraction

from obc.dynamics import Code
from obc.field import CycloNum
from obc.geometry import from_scaled
from obc.periodic import _code_vertices


@dataclass(frozen=True)
class UnfoldingChain:
    """Base-point chain p_0..p_k with step vectors w_i (p_{i+1} = p_i + 2 w_i)."""

    base: CycloNum
    points: tuple
    step_vectors: tuple

    def closes(self):
        return self.points[0] == self.points[-1]

    def barycenter(self):
        k = len(self.points) - 1
        s = self.points[0]
        for p in self.points[1:k]:
            s = s + p
        return s * Fraction(1, k)


def unfold(P, code, base=None):
    """Reflect P along the code, keeping the point fixed.

    After i reflections the copy of P is z -> (-1)^i z + c_i, so the base
    point's copy p_i reaches the copy of the coded vertex v_{a_i} by the step
    vector w_i = (-1)^i (v_{a_i} - base), and p_{i+1} = p_i + 2 w_i.  Returns
    the chain p_0..p_k with its step vectors.
    """
    code = Code.coerce(code)
    code.validate_labels(len(P.vertices))
    if base is None:
        base = P.centroid()
    pts = [base]
    ws = []
    for i, v in enumerate(_code_vertices(P, code.word)):
        w = v - base if i % 2 == 0 else base - v
        ws.append(w)
        pts.append(pts[-1] + w * 2)
    return UnfoldingChain(base, tuple(pts), tuple(ws))


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
