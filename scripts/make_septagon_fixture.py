#!/usr/bin/env python3
"""Regenerate tests/data/septagon.atlas.

    python scripts/make_septagon_fixture.py [--out PATH]

``--out`` writes the atlas elsewhere (default: tests/data/septagon.atlas),
so a check can regenerate it and compare it with the committed file.

A float-screened, exactly-certified sweep of a window outside the regular
septagon.  The window contains, besides the usual symmetric 7/14-gon tiles,
a small non-symmetric pentagonal tile orbit of period 276 whose barycenter
falls outside the tile, so its contraction verdict is "unstable".
"""

import argparse
import pathlib
import sys
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from obc.atlas import SearchWindow, save_atlas, search_tiles  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path, default=ROOT / "tests" / "data" / "septagon.atlas",
                    help="where to write the atlas")
    out = ap.parse_args().out
    window = SearchWindow(
        n=7,
        bounds=(Fraction(11, 10), Fraction(2), Fraction(1, 10), Fraction(1)),
        grid_resolution=Fraction(1, 10),
        max_period=600,
    )
    atlas = search_tiles(window)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_atlas(atlas, out)
    exotic = [t for t in atlas.tiles() if not t.symmetric]
    print(f"{len(atlas.entries)} orbits -> {out}")
    for t in exotic:
        print(f"non-symmetric: period={t.period} sides={len(t.polygon.vertices)} "
              f"verdict={t.stability.verdict}")


if __name__ == "__main__":
    main()
