"""Outer billiards with contraction outside regular polygons.

Exact cyclotomic arithmetic, certified predicates, periodic tile discovery,
the barycenter stability criterion, the square verification suite, and
convergence-of-picture measurements.
"""

from .field import CycloNum, approximate, cyclotomic_polynomial, euler_phi, sign_of_real
from .geometry import (
    ConvexPolygon,
    ExactPoint,
    HalfPlane,
    RegionResult,
    from_scaled,
    from_xy_approx,
    halfplane_left_of,
    hausdorff_distance,
    imag_scaled,
    intersect_halfplanes,
    orientation,
    point_xy,
    real_part,
    regular_ngon,
)
from .dynamics import Code, OrbitRecord, iterate, orbit_bound, select_vertex, step
from .periodic import (
    StabilityReport,
    Tile,
    code_fixed_point,
    is_lambda_stable,
    is_symmetric,
    stability_limit,
    tile_from_code,
    validate_periodic,
)
from .square import (
    count_attractors,
    existence_condition,
    lambda_k,
    sk_code,
    square_polygon,
)
from .atlas import (
    Atlas,
    SCRegion,
    SearchWindow,
    load_atlas,
    picture_convergence,
    save_atlas,
    scr_region,
    search_tiles,
)
from .render import RenderSpec, render_atlas_svg, render_orbit_svg

__version__ = "0.1.0"
