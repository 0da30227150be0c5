import pathlib
import sys
from fractions import Fraction

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

DATA = pathlib.Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def square():
    from obc.square import square_polygon

    return square_polygon()


@pytest.fixture(scope="session")
def pentagon_atlas():
    """Census of the first necklace region outside the regular pentagon."""
    from obc.atlas import SearchWindow, search_tiles

    window = SearchWindow(
        n=5,
        bounds=(Fraction(3, 10), Fraction(33, 10), Fraction(3, 10), Fraction(33, 10)),
        grid_resolution=Fraction(1, 7),
        max_period=120,
    )
    return search_tiles(window)


@pytest.fixture(scope="session")
def n4_square_frame_atlas(square):
    """Axis-aligned square frame, grid rings 1..6 along the negative x-axis."""
    from obc.atlas import SearchWindow, search_tiles

    window = SearchWindow(
        n=4,
        bounds=(Fraction(-13), Fraction(-1), Fraction(-1), Fraction(1)),
        grid_resolution=Fraction(1, 4),
        max_period=100,
    )
    return search_tiles(window, polygon=square)


@pytest.fixture(scope="session")
def septagon_fixture_path():
    return DATA / "septagon.atlas"


@pytest.fixture(scope="session")
def septagon_atlas(septagon_fixture_path):
    from obc.atlas import load_atlas

    atlas = load_atlas(septagon_fixture_path)
    assert not atlas.provenance["diagnostics"]
    return atlas


@pytest.fixture(scope="session")
def window_atlases():
    """The n = 7, 8, 10 and 12 atlases of the window [3/10, 4]^2, grid 1/12,
    periods up to 300, by n."""
    from obc.atlas import SearchWindow, search_tiles

    bounds = (Fraction(3, 10), Fraction(4), Fraction(3, 10), Fraction(4))
    return {n: search_tiles(SearchWindow(n=n, bounds=bounds, grid_resolution=Fraction(1, 12),
                                         max_period=300))
            for n in (7, 8, 10, 12)}
