"""Command-line interface: orbits, tiles, stability reports, the square
verification suite, window searches, same-code regions and SVG rendering.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .atlas import (
    SearchWindow,
    load_atlas,
    picture_convergence,
    save_atlas,
    scr_region,
    search_tiles,
)
from .dynamics import Code, iterate, orbit_to_text, seed_code
from .errors import ObcError
from .field import _U, CycloNum, check_conductor
from .geometry import float_point, from_xy_approx, hausdorff_distance, point_xy, regular_ngon
from .periodic import tile_from_code
from .render import RenderSpec, render_atlas_svg, render_orbit_svg
from .square import (
    count_attractors_detail,
    existence_condition,
    existence_identity_holds,
    lambda_k,
    square_polygon,
)


def _conductor(text):
    """argparse type of --n: an int that ``field.check_conductor`` accepts."""
    n = int(text)
    try:
        check_conductor(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return n


def _positive_int(text):
    """argparse type of step, period, depth and sample counts: an int >= 1."""
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _fraction(text):
    """A rational from 'p/q', decimal or scientific text, or a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _positive_fraction(text):
    """argparse type of --tol and --resolution: a rational > 0."""
    v = _fraction(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {v}")
    return v


def _precision_bits(text):
    """argparse type of --precision-bits: an int >= 16, the least ``approximate`` takes."""
    v = int(text)
    if v < 16:
        raise argparse.ArgumentTypeError(f"must be >= 16, got {v}")
    return v


def _box(text):
    """argparse type of --window and --viewport: four rationals x0,x1,y0,y1."""
    b = tuple(_fraction(p.strip()) for p in text.split(","))
    if len(b) != 4 or not (b[0] < b[1] and b[2] < b[3]):
        raise argparse.ArgumentTypeError(f"need x0,x1,y0,y1 with x0 < x1, y0 < y1; got {text!r}")
    return b


def parse_lambda(text):
    """argparse type of --lambda: a contraction rate in (0, 1]."""
    lam = _fraction(text)
    if not 0 < lam <= 1:
        raise argparse.ArgumentTypeError(f"contraction rate must be in (0, 1], got {lam}")
    return lam


def _lambda_list(text):
    """argparse type of --lambdas: a comma list of contraction rates."""
    return [parse_lambda(p) for p in text.split(",")]


def parse_seed(text, n):
    if ":" in text:  # serialized exact point
        try:
            z = CycloNum.parse(text)
        except ValueError as exc:
            raise ObcError(f"bad exact seed {text!r}: {exc}") from exc
        if z.n != n:
            raise ObcError(f"seed conductor {z.n} does not match --n {n}")
        return z
    try:
        xs, ys = text.split(",")
        return from_xy_approx(n, Fraction(xs.strip()), Fraction(ys.strip()))
    except ValueError as exc:
        raise ObcError(f"bad seed {text!r}: {exc}") from exc


def _polygon_for(args):
    if getattr(args, "square_frame", False):
        if args.n != 4:
            raise ObcError("--square-frame only makes sense with --n 4")
        return square_polygon()
    return regular_ngon(args.n)


def _fmt_pt(z):
    """``point_xy(z)`` as "(x, y)", 9 significant digits each.

    Each coordinate is read first from ``z.to_complex()``.  Its float f is
    within e of the true c (``float_point``), and point_xy's float g is
    within 2^-60 + u (|c| + 2^-60) of c, u = 2^-53 (proof there).  So
    |g - f| <= (1 + u)(e + 2^-60) + u |f| <= b = fl(1.01 (e + 2^-59 +
    u |f|)), whose three roundings lose at most a factor (1 - u)^3 and
    underflow at most 2^-1074.  The ends lo <= f - b and hi >= f + b are
    one float past the rounded f - b and f + b.  Rounding to 9 significant
    digits (half to even, as ``format`` does) is monotone, never rounds a
    nonzero value to 0, and the string names the rounded value.  So when
    lo and hi print alike, every float between them prints so, g included.
    Otherwise point_xy decides; an infinite e, for a point too large for
    its floats, gives the ends "-inf" and "inf".
    """
    fx, fy, e = float_point(z)
    texts = []
    for f in (fx, fy):
        b = 1.01 * (e + 2.0**-59 + _U * abs(f))
        text = f"{math.nextafter(f - b, -math.inf):.9g}"
        if text != f"{math.nextafter(f + b, math.inf):.9g}":
            texts = [f"{c:.9g}" for c in point_xy(z)]
            break
        texts.append(text)
    return f"({texts[0]}, {texts[1]})"


def cmd_orbit(args):
    P = _polygon_for(args)
    x = parse_seed(args.seed, args.n)
    rec = iterate(P, args.lam, x, args.steps)
    if args.exact:
        sys.stdout.write(orbit_to_text(rec))
    else:
        for p in rec.points:
            print(_fmt_pt(p))
        print("code=" + ",".join(str(a) for a in rec.code))
    info = rec.termination
    if rec.termination == "exact_repeat":
        info += f" preperiod={rec.preperiod} period={rec.period}"
    elif rec.termination == "hit_singular":
        info += f" step={rec.singular_step}"
    print(f"termination={info}")
    return 0


def _code_from_args(args, P):
    if args.code:
        code = Code.parse(args.code)
        code.validate_labels(len(P.vertices))
        return code
    return seed_code(P, parse_seed(args.seed, args.n), args.max_steps)


def cmd_tile(args):
    P = _polygon_for(args)
    code = _code_from_args(args, P)
    tile = tile_from_code(P, code)
    print(f"code={code.serialize()}")
    print(f"period={tile.period}")
    print(f"sides={len(tile.polygon.vertices)}")
    for v in tile.polygon.vertices:
        print(f"vertex {_fmt_pt(v)}  {v.serialize()}")
    return 0


def cmd_stability(args):
    P = _polygon_for(args)
    code = _code_from_args(args, P)
    tile = tile_from_code(P, code)
    rep = tile.stability
    print(
        f"code={code.serialize()} period={tile.period} "
        f"symmetric={str(tile.symmetric).lower()} "
        f"stable={str(rep.verdict == 'stable').lower()} "
        f"verdict={rep.verdict} limit={_fmt_pt(rep.limit_point)}"
    )
    return 0


def cmd_square_verify(args):
    print(f"{'k':<3s} {'lambda_k enclosure':<38s}  {'p_k<=0 at (hi+1)/2':<18s}  identity")
    prev_hi = None
    for k in range(1, args.kmax + 1):
        lo, hi = lambda_k(k, args.tol)
        exist = existence_condition(k, (hi + 1) / 2) if hi < 1 else True
        ident = existence_identity_holds(k)
        mono = "" if prev_hi is None or lo > prev_hi else "  NOT-INCREASING"
        print(f"{k:<3d} [{float(lo):.15f}, {float(hi):.15f}]  {str(exist):<18s}  {str(ident)}{mono}")
        prev_hi = hi
    if not args.skip_attractors:
        print()
        print("lambda   attractors  undecided  periods")
        for lam in (Fraction(1, 2), Fraction(4, 5), Fraction(9, 10)):
            cnt, codes, und = count_attractors_detail(
                lam, samples=args.samples, max_steps=args.max_steps
            )
            periods = [Code(w).period for w in codes]
            print(f"{str(lam):<8s} {cnt:<11d} {und:<10d} {periods}")
    return 0


def cmd_search(args):
    window = SearchWindow(
        n=args.n,
        bounds=args.window,
        grid_resolution=args.resolution,
        max_period=args.max_period,
    )
    atlas = search_tiles(window)
    print(
        f"found {len(atlas.entries)} tile orbits "
        f"({atlas.provenance['seeds']} seeds, "
        f"{atlas.provenance['singular_skipped']} singular, "
        f"{atlas.provenance['undecided']} undecided)"
    )
    for t in atlas.tiles():
        print(
            f"  period={t.period} sides={len(t.polygon.vertices)} "
            f"symmetric={str(t.symmetric).lower()} verdict={t.stability.verdict}"
        )
    if args.out:
        save_atlas(atlas, args.out)
        print(f"atlas written to {args.out}")
    return 0


def cmd_scr(args):
    P = _polygon_for(args)
    x = parse_seed(args.seed, args.n)
    if args.lambdas:
        rows = picture_convergence(P, x, args.lambdas, args.depth)
        print("lambda      hausdorff_to_tile   depth")
        for lam, d in rows:
            print(f"{str(lam):<11s} {d:<19.9f} {args.depth}")
        return 0
    region = scr_region(P, args.lam, x, args.depth)
    print(f"depth={args.depth} sides={len(region.polygon.vertices)}")
    for v in region.polygon.vertices:
        print(f"vertex {_fmt_pt(v)}")
    if args.compare_tile:
        tile = tile_from_code(P, seed_code(P, x, 4 * args.depth + 16))
        print(f"hausdorff_to_tile={hausdorff_distance(region.polygon, tile.polygon):.9f}")
    return 0


def cmd_render(args):
    spec = RenderSpec(
        viewport=tuple(float(p) for p in args.viewport),
        precision_bits=args.precision_bits,
    )
    if args.atlas:
        atlas = load_atlas(args.atlas)
        diagnostics = atlas.provenance["diagnostics"]
        if diagnostics:
            raise ObcError("\n".join([f"{args.atlas} has rejected entries:", *diagnostics]))
        render_atlas_svg(atlas, spec, args.out)
    else:
        P = _polygon_for(args)
        x = parse_seed(args.seed, args.n)
        render_orbit_svg(P, iterate(P, args.lam, x, args.steps), spec, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="obc",
        description="Outer billiards with contraction outside regular polygons",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, *alternatives):
        """--n, --square-frame and a required --seed, or else exactly one of
        --seed and the (flag, help) alternatives."""
        p.add_argument("--n", type=_conductor, default=4,
                       help="polygon order (vertices at roots of unity)")
        p.add_argument("--square-frame", action="store_true",
                       help="use the axis-aligned square with vertices (+-1,+-1) (n=4 only)")
        seed_help = "decimal point 'x,y'"
        if not alternatives:
            p.add_argument("--seed", required=True, help=seed_help)
            return
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--seed", help=seed_help)
        for flag, help_text in alternatives:
            g.add_argument(flag, help=help_text)

    p = sub.add_parser("orbit", help="iterate the map and dump the orbit")
    add_common(p)
    p.add_argument("--lambda", dest="lam", type=parse_lambda, default="1",
                   help="contraction rate in (0, 1], p/q or decimal")
    p.add_argument("--steps", type=_positive_int, default=100)
    p.add_argument("--exact", action="store_true", help="emit serialized exact points")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("tile", help="build the tile for a seed or a code")
    add_common(p, ("--code", "comma-separated vertex labels"))
    p.add_argument("--max-steps", type=_positive_int, default=4096)
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("stability", help="symmetry and stability report for a tile")
    add_common(p, ("--code", "comma-separated vertex labels"))
    p.add_argument("--max-steps", type=_positive_int, default=4096)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("square-verify", help="square family: thresholds and attractor counts")
    p.add_argument("--kmax", type=_positive_int, default=6)
    p.add_argument("--tol", type=_positive_fraction, default="1e-12",
                   help="enclosure width (rational or scientific)")
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--max-steps", type=_positive_int, default=10000)
    p.add_argument("--skip-attractors", action="store_true")
    p.set_defaults(func=cmd_square_verify)

    p = sub.add_parser("search", help="scan a window for periodic tiles")
    p.add_argument("--n", type=_conductor, required=True)
    p.add_argument("--window", type=_box, required=True, help="x0,x1,t0,t1 (scaled coordinates)")
    p.add_argument("--resolution", type=_positive_fraction, default="1/8")
    p.add_argument("--max-period", type=_positive_int, default=64)
    p.add_argument("--out", help="atlas output path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("scr", help="same-code region / convergence of picture")
    add_common(p)
    p.add_argument("--lambda", dest="lam", type=parse_lambda, default="1")
    p.add_argument("--lambdas", type=_lambda_list,
                   help="comma list; report distances to the tile instead")
    p.add_argument("--depth", type=_positive_int, default=50)
    p.add_argument("--compare-tile", action="store_true")
    p.set_defaults(func=cmd_scr)

    p = sub.add_parser("render", help="render an atlas or an orbit to SVG")
    add_common(p, ("--atlas", "atlas file to draw"))
    p.add_argument("--lambda", dest="lam", type=parse_lambda, default="1")
    p.add_argument("--steps", type=_positive_int, default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--viewport", type=_box, default="-8,8,-8,8", help="x0,x1,y0,y1")
    p.add_argument("--precision-bits", type=_precision_bits, default=53)
    p.set_defaults(func=cmd_render)

    return ap


def run_cli(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ObcError, ValueError, ZeroDivisionError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
