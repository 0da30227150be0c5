"""The package's plain records: construction, equality, hashing, repr, and
what importing them costs."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from obc.atlas import Atlas, SCRegion, SearchWindow
from obc.dynamics import Code, OrbitRecord, Selection
from obc.errors import GeometryError
from obc.field import CycloNum
from obc.geometry import HalfPlane, RegionResult, from_scaled, regular_ngon
from obc.periodic import StabilityReport, Tile
from obc.render import RenderSpec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

P = regular_ngon(5)
X = from_scaled(5, 2, 1)
ONE = CycloNum.one(5)

# class, required fields, defaulted fields, frozen; each in __init__ order
RECORDS = [
    (SearchWindow, {"n": 5, "bounds": (0, 1, 0, 1), "grid_resolution": Fraction(1, 7),
                    "max_period": 120}, {"mode": "exact"}, True),
    (Atlas, {"polygon": P}, {"entries": {}, "provenance": {}}, False),
    (SCRegion, {"x": X, "lam": Fraction(1, 2), "depth": 3, "polygon": P}, {}, True),
    (Selection, {"kind": "vertex"}, {"label": None, "candidates": ()}, True),
    (OrbitRecord, {"start": X, "lam": Fraction(1)},
     {"points": [], "code": [], "termination": "cap_reached", "preperiod": None,
      "period": None, "singular_step": None}, False),
    (HalfPlane, {"a": ONE, "b": -ONE, "c": ONE}, {}, True),
    (RegionResult, {"kind": "empty"}, {"polygon": None, "half_width": None}, True),
    (StabilityReport, {"limit_point": X, "verdict": "stable", "membership": "interior"}, {},
     True),
    (Tile, {"polygon": P, "code": Code((1, 3, 5))}, {"symmetric": None, "stability": None},
     False),
    (RenderSpec, {}, {"viewport": (-8.0, 8.0, -8.0, 8.0), "precision_bits": 53}, True),
]


@pytest.mark.parametrize("cls, required, defaults, frozen", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_semantics(cls, required, defaults, frozen):
    fields = {**required, **defaults}
    last = list(fields)[-1]
    r = cls(**required)
    assert {k: getattr(r, k) for k in fields} == fields
    assert r == cls(**fields) == cls(*fields.values())
    assert r != cls(**{**fields, last: object()})
    assert r != tuple(fields.values())
    assert r != type("Sub", (cls,), {})(**fields)  # of another class
    assert repr(r).startswith(f"{cls.__name__}(") and f"{last}=" in repr(r)
    assert copy.copy(r) == r == pickle.loads(pickle.dumps(r))
    for k, v in defaults.items():
        if isinstance(v, (list, dict)):
            assert getattr(r, k) is not getattr(cls(**required), k)
    if frozen:
        assert hash(r) == hash(cls(**fields))
        with pytest.raises(AttributeError):
            setattr(r, last, fields[last])
    else:
        with pytest.raises(TypeError):
            hash(r)
        setattr(r, last, 1)
        assert getattr(r, last) == 1 and r != cls(**fields)


def test_halfplane_refuses_a_zero_normal():
    zero = CycloNum.zero(5)
    with pytest.raises(GeometryError):
        HalfPlane(zero, zero, ONE)


def test_import_generates_no_code():
    # a fresh interpreter, since pytest itself has loaded these modules;
    # hashlib loads only when render colors a code
    probe = ("import sys, obc, obc.cli; print(obc.__file__); "
             "print(sorted({'dataclasses', 'inspect', 'ast', 'hashlib'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    assert out[0].startswith(os.path.join(SRC, "obc")) and out[1] == "[]", out
