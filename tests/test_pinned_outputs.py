"""Byte pins of CLI outputs, in-process.

The CI workflow pins the same sha256 digests through the console script, in
steps after the benchmark selftest; these run with the unit tests, so a
changed output fails here whatever an earlier workflow step does.  About
five seconds in all.
"""

import hashlib

import pytest

from obc.cli import run_cli

WINDOW = ["--window", "0.3,4,0.3,4", "--resolution", "1/12", "--max-period", "300"]
# the 120th preimage under the lam = 1 map of a point 2^-60 off a singular
# ray of the pentagon
RESEED_START = ("5:-32281802128991715319/6917529027641081856,"
                "-28823037615171174397/3458764513820540928,"
                "4611686018427387905/2305843009213693952,4611686018427387905/2305843009213693952")
# the certified non-symmetric, unstable period-276 septagon tile, as
# tests/data/septagon.atlas writes its code
CODE_276 = ("1,3,6,1,4,6,2,4,7,3,5,1,4,6,2,5,7,3,6,1,4,7,2,5,7,3,5,1,3,6,2,4,7,3,5,"
            "1,3,6,1,4,6,2,5,7,3,6,1,4,7,2,5,1,3,6,2,4,7,2,5,7,3,5,1,4,6,2,5,1,3,6,"
            "2,5,7,3,6,1,4,6,2,4,7,2,5,1,3,6,2,5,7,3,6,2,4,7,3,5,1,3,6,1,4,6,2,5,7,"
            "3,6,2,4,7,3,6,1,4,7,2,5,7,3,5,1,3,6,2,4,7,3,5,1,4,6,2,5,7,3,6,1,4,6,2,"
            "4,7,2,5,1,3,6,2,5,7,3,6,2,4,7,3,5,1,3,6,1,4,6,2,5,7,3,6,2,4,7,3,6,1,4,"
            "7,2,5,7,3,5,1,3,6,2,4,7,3,6,1,4,7,3,5,1,4,6,2,4,7,2,5,7,3,6,1,4,7,2,5,"
            "1,3,6,2,4,7,3,5,1,3,6,1,4,6,2,5,7,3,6,2,4,7,3,6,1,4,7,2,5,7,3,5,1,3,6,"
            "2,4,7,3,6,1,4,7,3,5,1,4,6,2,4,7,2,5,7,3,6,1,4,7,3,5,1,4,7,2,5")

# (name, argv, file the command writes or None for stdout, sha256, a line
# its stdout must hold or None)
PINS = [
    ("square_verify", ["square-verify", "--kmax", "12", "--samples", "1000"], None,
     "ced8764d868f3401beeb57e57b489f286e94d9a5508daec7b40034ed2d12cd33", None),
    ("census", ["search", "--n", "5", "--window", "0.3,3.3,0.3,3.3", "--resolution", "1/7",
                "--max-period", "120", "--out"], "pentagon.atlas",
     "50a820762a0e2a00ee07390c17021419da8ff418cc2610a0b8c370d540e5eea3",
     "found 8 tile orbits (484 seeds, 13 singular, 24 undecided)"),
    ("n12_window", ["search", "--n", "12", *WINDOW, "--out"], "n12.atlas",
     "26532fd20a73c71dfeaf6931cbedc5bc9f192b365b59e891d9ae595ec7ce8fd1",
     "found 59 tile orbits (2025 seeds, 114 singular, 48 undecided)"),
    ("n7_window", ["search", "--n", "7", *WINDOW, "--out"], "n7.atlas",
     "4e50f335c0f264fae6e40d9ed438cbf169dd06630e19d051eb6087e81f60b77a",
     "found 18 tile orbits (2025 seeds, 57 singular, 137 undecided)"),
    ("n8_window", ["search", "--n", "8", *WINDOW, "--out"], "n8.atlas",
     "f4cf5b068ede32b200f663b8d89b8c2ee840f5de99ece81f225229224e00f6ce",
     "found 16 tile orbits (2025 seeds, 69 singular, 62 undecided)"),
    ("n10_window", ["search", "--n", "10", *WINDOW, "--out"], "n10.atlas",
     "3471a63f1c4f84a99915899c4b12200b2b90cfbe149e293597ec5fa88e0cb1c9",
     "found 22 tile orbits (2025 seeds, 93 singular, 63 undecided)"),
    # paper scale with longer codes: periods up to 2702
    ("n7_window_3000", ["search", "--n", "7", "--window", "0.3,4,0.3,4", "--resolution", "1/12",
                        "--max-period", "3000", "--out"], "n7-3000.atlas",
     "5ac02ece3096d52bf2a5f47a0078926fa60726602010907d613eb64d6ba07e9f",
     "found 30 tile orbits (2025 seeds, 57 singular, 63 undecided)"),
    # one tile and its two verdicts, read from the clip lines of the tile
    ("tile_276", ["tile", "--n", "7", "--code", CODE_276], None,
     "75ec5684b7e14f2b61da62ca0a35baa3e8dd92504a76f61a199f942756b682dc", "period=276"),
    ("stability_276", ["stability", "--n", "7", "--code", CODE_276], None,
     "822b5a7537b72f1a719f05c0a8c2389f40ae7bcf1e9ed76854fc36a82d4dd3dd", None),
    ("scr", ["scr", "--n", "12", "--seed", "2.51,0.33", "--lambda", "4/5", "--depth", "40"],
     None, "2b496dc38088a6acd7759d037fdea8bca006c1173ed1c395c800a6ef78a590ae", None),
    # offsets near 2^1100, past the largest float: the clip's float tests
    # abstain and the exact signs decide
    ("scr_deep", ["scr", "--n", "5", "--seed", "2.51,0.33", "--lambda", "1/2", "--depth", "1100"],
     None, "13dbfebc00afbb5f935949e1e418ffcfd32120bd6b8ad1aec14b3b73b0c9de72", None),
    ("scr_square_frame", ["scr", "--n", "4", "--square-frame", "--seed=-2,0",
                          "--lambdas", "0.9,0.99,0.999", "--depth", "200"],
     None, "1f1294fd11f6a6e3f7d1e022564e076f86963f1bea34079bc303c8bd38ea9539", None),
    ("orbit_svg", ["render", "--n", "4", "--square-frame", "--lambda", "1/2", "--seed", "3,0",
                   "--steps", "30", "--out"], "orbit.svg",
     "74c378845a08d6cdff5dd6d0d3650212142ca6cb2cdb4ddb22cc9830e58ff741", None),
    # 5000 exact lambda = 1/2 steps with coefficients past 5000 bits
    ("contracted_orbit", ["orbit", "--n", "4", "--lambda", "1/2", "--seed", "2.5,0.4375",
                          "--steps", "5000"],
     None, "8c7458ce1e6cc40c543b33c4f3b28b376b43206d7a0c5aa6c270231d9d470f74", None),
    # 20000 uncontracted steps outside the septagon, each vertex certified
    # from the float image that the orbit carries with its error bound
    ("long_septagon_orbit", ["orbit", "--n", "7", "--seed", "7:3/1,4/5,2/5,2/5,2/5,2/5",
                             "--steps", "20000"],
     None, "4d5dd2f2523fc69058941d735accaee795d7691a971e1a5bb592e168b2587601",
     "termination=cap_reached"),
    # a period-750 pentagon orbit that passes 2^-60 off singular rays: the
    # carried filter abstains at 6 steps, and the image is re-seeded there
    ("reseeded_pentagon_orbit", ["orbit", "--n", "5", "--seed", RESEED_START, "--steps", "1000"],
     None, "9632109a32b1606e06714b2fdbb9dd9bbaf0d6f0420a81b40569c26010f94d92",
     "termination=exact_repeat preperiod=0 period=750"),
]


@pytest.mark.parametrize("argv, out, sha, line", [p[1:] for p in PINS],
                         ids=[p[0] for p in PINS])
def test_cli_output_is_pinned(capsys, tmp_path, argv, out, sha, line):
    if out is not None:
        argv = argv + [str(tmp_path / out)]
    assert run_cli(argv) == 0
    stdout = capsys.readouterr().out
    data = (tmp_path / out).read_bytes() if out is not None else stdout.encode()
    assert hashlib.sha256(data).hexdigest() == sha
    if line is not None:
        assert line in stdout.splitlines()
