"""Command-line surface: subcommands, formats, exit codes."""

import hashlib
import os
import random
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

import obc
import obc.cli
from obc.cli import _fmt_pt, run_cli
from obc.field import CycloNum, context
from obc.geometry import from_scaled, point_xy

DATA = os.path.join(os.path.dirname(__file__), "data")


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbit_square_frame(capsys):
    code, out, _ = run(capsys, "orbit", "--n", "4", "--square-frame",
                       "--lambda", "1/2", "--seed", "3,0", "--steps", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(3, 0)"
    assert lines[1] == "(0, 1.5)"
    assert "code=1,2,3" in out
    assert "termination=cap_reached" in out


def test_orbit_exact_mode(capsys):
    code, out, _ = run(capsys, "orbit", "--n", "4", "--square-frame",
                       "--lambda", "1", "--seed=-2,0", "--steps", "8", "--exact")
    assert code == 0
    assert "4:" in out
    assert "exact_repeat preperiod=0 period=4" in out


def test_orbit_accepts_serialized_seed(capsys):
    # the serialized form of (-2, 0) in Q(i)
    code, out, _ = run(capsys, "orbit", "--n", "4", "--square-frame",
                       "--lambda", "1", "--seed=4:-2/1,0/1", "--steps", "4")
    assert code == 0
    assert "period=4" in out
    code, _, err = run(capsys, "orbit", "--n", "5", "--seed=4:-2/1,0/1")
    assert code == 1 and "conductor" in err
    code, out, err = run(capsys, "orbit", "--n", "5", "--seed=5:1/0,0/1,0/1,0/1")
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith("error: bad exact seed '5:1/0,0/1,0/1,0/1': zero denominator"), err


def test_stability_pentagon(capsys):
    code, out, _ = run(capsys, "stability", "--n", "5", "--seed", "0.5,2.1")
    assert code == 0
    assert "symmetric=true" in out
    assert "stable=true" in out
    assert "limit=(" in out


def test_tile_from_code(capsys):
    code, out, _ = run(capsys, "tile", "--n", "4", "--square-frame", "--code", "3,4,1,2")
    assert code == 0
    assert "period=4" in out and "sides=4" in out
    # a realizable code whose orbits drift away: no tile
    code, out, err = run(capsys, "tile", "--n", "5", "--code", "1,2")
    assert code == 1 and out == "" and "not periodic" in err


def test_orbit_from_inside_the_polygon(capsys):
    code, out, _ = run(capsys, "orbit", "--n", "5", "--seed", "0.1,0.1", "--steps", "3")
    assert code == 0
    assert out.splitlines()[-1] == "termination=inside"


def test_square_verify(capsys):
    code, out, _ = run(capsys, "square-verify", "--kmax", "3", "--tol", "1e-12",
                       "--samples", "40", "--max-steps", "3000")
    assert code == 0
    assert "lambda_k enclosure" in out
    assert "p_k<=0 at (hi+1)/2" in out
    assert "0.754877666" in out
    assert "attractors" in out


def test_search_and_render_pipeline(tmp_path, capsys):
    atlas_path = tmp_path / "n4.atlas"
    code, out, _ = run(capsys, "search", "--n", "4", "--window", "2/5,3,2/5,3",
                       "--resolution", "1/4", "--max-period", "40",
                       "--out", str(atlas_path))
    assert code == 0
    assert atlas_path.exists()
    assert "tile orbits" in out
    svg_path = tmp_path / "n4.svg"
    code, out, _ = run(capsys, "render", "--atlas", str(atlas_path),
                       "--out", str(svg_path), "--viewport=-5,5,-5,5")
    assert code == 0
    ET.parse(svg_path)


def test_render_rejects_tampered_atlas(tmp_path, capsys):
    # flipping every symmetry flag of the septagon fixture leaves only the
    # non-symmetric entry valid; render must report the rest, not draw it
    with open(os.path.join(DATA, "septagon.atlas"), encoding="utf-8") as f:
        text = f.read()
    flipped = text.count("symmetric=1")
    assert flipped == 7
    atlas_path = tmp_path / "tampered.atlas"
    atlas_path.write_text(text.replace("symmetric=1", "symmetric=0"), encoding="utf-8")
    svg_path = tmp_path / "tampered.svg"
    code, out, err = run(capsys, "render", "--atlas", str(atlas_path), "--out", str(svg_path))
    assert code == 1
    assert not svg_path.exists() and "wrote" not in out
    rejected = [line for line in err.splitlines() if "rejected (stored symmetry flag" in line]
    assert len(rejected) == flipped, err


def test_scr_compare(capsys):
    code, out, _ = run(capsys, "scr", "--n", "4", "--square-frame", "--seed=-2,0",
                       "--lambda", "1", "--depth", "4", "--compare-tile")
    assert code == 0
    assert "hausdorff_to_tile=0.0" in out


def test_scr_picture_mode(capsys):
    code, out, _ = run(capsys, "scr", "--n", "4", "--square-frame", "--seed=-2,0",
                       "--lambdas", "0.9,1", "--depth", "40")
    assert code == 0
    assert "hausdorff_to_tile" in out


def test_usage_error_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "orbit", "--n", "4", "--badflag")
    assert code == 2
    # a missing --seed (or its alternative --code / --atlas) is a usage error
    svg = str(tmp_path / "f.svg")
    for argv in (["orbit"], ["scr"], ["render", "--out", svg], ["tile"], ["stability"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "required" in errors[0], (argv, err)
    # out-of-range conductors, counts below 1, precisions below 16 bits,
    # nonpositive tolerances and grid steps, and rates outside (0, 1] are
    # usage errors too
    for argv in (["orbit", "--n", "2", "--seed", "3,0"],
                 ["orbit", "--n", "0", "--seed", "3,0"],
                 ["search", "--n", "1000003", "--window", "0,1,0,1"],
                 ["search", "--n", "129", "--window", "0,1,0,1"],
                 ["orbit", "--seed", "3,0", "--steps", "0"],
                 ["tile", "--seed", "3,0", "--max-steps", "0"],
                 ["search", "--n", "5", "--window", "0,1,0,1", "--max-period", "0"],
                 ["scr", "--seed", "3,0", "--depth", "0"],
                 ["square-verify", "--kmax", "0"],
                 ["square-verify", "--samples", "-1"],
                 ["render", "--seed", "3,0", "--out", svg, "--precision-bits", "8"],
                 ["square-verify", "--tol", "0"],
                 ["search", "--n", "5", "--window", "0,1,0,1", "--resolution", "0"],
                 ["search", "--n", "5", "--window", "0,1,0,1", "--resolution", "1/0"],
                 ["orbit", "--seed", "3,0", "--lambda", "0"],
                 ["orbit", "--seed", "3,0", "--lambda", "3/2"],
                 ["scr", "--seed", "3,0", "--lambda", "-1/2"],
                 ["scr", "--seed", "3,0", "--lambdas", "1/2,0"],
                 ["render", "--seed", "3,0", "--out", svg, "--lambda", "2"],
                 # windows and viewports: four rationals, lower < upper
                 ["search", "--n", "5", "--window", "3,0.3,0.3,3.3"],
                 ["search", "--n", "5", "--window", "0.3,3.3,1,1"],
                 ["search", "--n", "5", "--window", "0,1,0"],
                 ["search", "--n", "5", "--window", "0,1,0,1,2"],
                 ["search", "--n", "5", "--window", "0,x,0,1"],
                 ["search", "--n", "5", "--window", "0,1/0,0,1"],
                 ["render", "--seed", "3,0", "--out", svg, "--viewport=2,1,3,4"],
                 ["render", "--seed", "3,0", "--out", svg, "--viewport=-5,5,5,-5"],
                 ["render", "--seed", "3,0", "--out", svg, "--viewport=-5,5,-5"],
                 ["render", "--seed", "3,0", "--out", svg, "--viewport=a,b,c,d"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error: argument" in err, (argv, err)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))


def test_out_of_range_conductor_fails_fast(tmp_path):
    # each of these once built a context for n = 1000003, hanging while its
    # memory grew; a subprocess with a timeout and a 2 GiB address-space
    # limit keeps a regression from stalling the suite or the machine
    atlas = tmp_path / "big.atlas"
    atlas.write_text("obc-atlas v1 n=1000003\n", encoding="utf-8")
    svg = str(tmp_path / "a.svg")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(obc.__file__)))
    for argv, expected in ((["orbit", "--n", "1000003", "--seed", "1,1"], 2),
                           (["orbit", "--n", "5", "--seed", "1000003:1/1"], 1),
                           (["render", "--atlas", str(atlas), "--out", svg], 1)):
        proc = subprocess.run([sys.executable, "-m", "obc.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60,
                              preexec_fn=_limit_memory)
        assert proc.returncode == expected, (argv, proc.stderr)
        assert "conductor must be in [3, 128]" in proc.stderr, (argv, proc.stderr)


def test_domain_error_exit_1(capsys):
    # a seed whose orbit does not close: the message says why
    inside = "seed lies in the closed polygon, where the map is undefined"
    for argv, message in (
            (["stability", "--n", "4", "--square-frame", "--seed", "0,0"], inside),
            (["tile", "--n", "5", "--seed", "0.1,0.1"], inside),
            # `obc orbit` reports this orbit as termination=hit_singular step=3
            (["tile", "--n", "4", "--square-frame", "--seed", "3,2"],
             "seed's orbit meets the singular set at step 3"),
            # this seed closes on a 10-step cycle (a period-5 tile)
            (["tile", "--n", "5", "--seed", "0.5,2.1", "--max-steps", "3"],
             "seed is not periodic within 3 steps"),
            (["scr", "--n", "5", "--seed", "0.1,0.1"], "point is inside; its code is undefined"),
            (["scr", "--n", "4", "--square-frame", "--seed", "3,1"],
             "point is singular; its code is undefined"),
            (["scr", "--n", "4", "--square-frame", "--seed", "3,2", "--depth", "10"],
             "orbit hits the singular set at step 3"),
            # far seeds at lam < 1: the box of half-width 2n(1 + lam)/(1 - lam) + 4
            (["scr", "--n", "5", "--seed", "100,100", "--lambda", "1/1000", "--depth", "3"],
             "region does not contain its seed: the seed lies outside the box "
             "|x|, |ytilde| <= w that clips the region, half-width w = 14.02"),
            (["scr", "--n", "4", "--seed", "1e30,1e30", "--lambda", "1/2", "--depth", "3"],
             "region does not contain its seed: the seed lies outside the box "
             "|x|, |ytilde| <= w that clips the region, half-width w = 28")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv
    code, out, _ = run(capsys, "orbit", "--n", "4", "--square-frame", "--lambda", "1",
                       "--seed", "3,2", "--steps", "10")
    assert code == 0 and out.splitlines()[-1] == "termination=hit_singular step=3"


@pytest.mark.parametrize("argv", [
    # the seed's scaled ordinate overflows a float (from_xy_approx)
    ["orbit", "--n", "5", "--seed", "0,1e400"],
    # exact for n = 4, but its printed coordinates overflow (point_xy)
    ["orbit", "--n", "4", "--seed", "1e400,0"],
    ["render", "--n", "5", "--seed", "2,1", "--out", "{svg}", "--viewport=-1e400,1,0,1"],
])
def test_huge_decimal_input_is_a_domain_error(tmp_path, capsys, argv):
    svg = tmp_path / "x.svg"
    code, out, err = run(capsys, *(a.format(svg=svg) for a in argv))
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (out, err)
    assert not svg.exists()


def _point_xy_text(z):
    x, y = point_xy(z)
    return f"({x:.9g}, {y:.9g})"


@pytest.fixture
def slow_formats(monkeypatch):
    """The points that _fmt_pt hands to point_xy, in order."""
    asked = []

    def counted(z, bits=60):
        asked.append(z)
        return point_xy(z, bits)

    monkeypatch.setattr(obc.cli, "point_xy", counted)
    return asked


def test_fmt_pt_prints_point_xy_on_random_points(slow_formats):
    rnd = random.Random(29)
    for _ in range(600):
        n = rnd.choice((4, 5, 7, 12))
        den = rnd.choice((1, 3, 7, 2**rnd.randint(0, 80), 10**rnd.randint(0, 30)))
        top = 10**rnd.randint(1, 40)
        z = CycloNum(n, [Fraction(rnd.randint(-top, top), den) for _ in range(context(n).phi)])
        assert _fmt_pt(z) == _point_xy_text(z), z.serialize()
    assert len(slow_formats) < 60  # the fast path decides the rest
    huge = CycloNum(5, [Fraction(3**300), Fraction(-(2**600)), Fraction(1, 7), Fraction(0)])
    assert _fmt_pt(huge) == _point_xy_text(huge)
    assert slow_formats[-1] is huge  # too large for its floats: point_xy decides


def test_fmt_pt_abstains_at_a_9_digit_rounding_boundary(slow_formats):
    # x within 10^-12 of beta, the midpoint between two 9-digit decimals
    # (exact in x for every n, and in y too at n = 4, where ytilde = y).
    # The fast interval holds the true coordinate +- (b - e) >= 0.01 e, and
    # e >= 2^-47 (T + 1) with T >= |beta|, so a point that near beta must
    # go to point_xy; every point prints as point_xy does
    rnd = random.Random(2929)
    offsets = [Fraction(0)] + [Fraction(s, 10**k) for k in (12, 13, 15, 17) for s in (1, -1)]
    abstained = 0
    for _ in range(40):
        beta = Fraction(rnd.randint(10**8, 10**9 - 1) * 10 + 5, 10**9) * Fraction(10) ** rnd.randint(-4, 6)
        beta *= rnd.choice((1, -1))
        t = Fraction(rnd.randint(-10**6, 10**6), 10**5)
        for off in offsets:
            must = abs(off) < Fraction(1, 200) * Fraction(2.0**-47) * (abs(beta) + 1)
            for n, z in [(n, from_scaled(n, beta + off, t)) for n in (4, 5, 7)] + [
                    (4, from_scaled(4, t, beta + off))]:
                del slow_formats[:]
                assert _fmt_pt(z) == _point_xy_text(z), (n, beta, off)
                if must:
                    assert slow_formats == [z], (n, beta, off)
                    abstained += 1
    assert abstained > 200


def test_fmt_pt_decides_zero_coordinates_exactly(slow_formats):
    # the fast interval of an exactly-zero coordinate straddles 0, so its
    # ends print with opposite signs; the exact point decides it instead
    on_axis = [CycloNum.zero(5)] + [
        z for n in (4, 5, 6, 7, 12) for v in (3, Fraction(-7, 3), Fraction(5, 7))
        for z in (from_scaled(n, v, 0), from_scaled(n, 0, v))]
    for z in on_axis:
        assert _fmt_pt(z) == _point_xy_text(z), z.serialize()
        assert "0" in _fmt_pt(z)[1:-1].split(", ")  # and never "-0"
    assert slow_formats == []
    # x a midpoint between two 9-digit decimals: point_xy decides x alone
    z = from_scaled(4, Fraction(1234567895, 10**9), 0)
    assert _fmt_pt(z) == _point_xy_text(z) == "(1.2345679, 0)"
    assert slow_formats == [z]
    # a nonzero coordinate whose interval straddles 0 is point_xy's to print
    # (its 60-bit enclosure gives y = 1.08e-19 here, x = 0 below)
    tiny = Fraction(1, 10**30)
    for z in (from_scaled(7, 3, tiny), from_scaled(7, -tiny, 3)):
        assert _fmt_pt(z) == _point_xy_text(z), z.serialize()
    assert slow_formats[1:] == [from_scaled(7, 3, tiny), from_scaled(7, -tiny, 3)]


@pytest.mark.parametrize("seed, steps, sha, last", [
    ("2.51,0.33", 400, "5dda4cc5f1efbb6f9396245050eda04533f0b5627bb73cb78746da5cc8c6f1d5",
     "termination=cap_reached"),
    ("5:-275/991,-1980/991,-1650/991,396/991", 20,
     "6e560bd1337d33dcd7646e4e6ebccfdfcb88f1475dc100f317f65894acf113de",
     "termination=exact_repeat preperiod=0 period=5"),
], ids=["generic", "q_W"])
def test_contracted_pentagon_orbits_at_five_sixths(capsys, seed, steps, sha, last):
    # the CI pins: q = 6 has two primes; a generic start runs to the cap and
    # the exact fixed point of the word 1,3,5,2,4 closes
    code, out, _ = run(capsys, "orbit", "--n", "5", "--lambda", "5/6", "--seed", seed,
                       "--steps", str(steps))
    assert code == 0
    assert out.splitlines()[-1] == last
    assert hashlib.sha256(out.encode()).hexdigest() == sha
