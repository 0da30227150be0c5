"""Span tracer for the ``obc`` layers.

The tracer wraps public functions of each ``obc`` layer from outside: no
file of the library changes.  Because ``obc`` modules bind names with
``from .x import y``, every module attribute that *is* a traced function is
replaced, not only the defining one; ``CycloNum`` and ``ConvexPolygon``
methods are replaced on the class.  ``restore()`` puts every original back.

Each call becomes a span (name, start, end, parent).  Aggregates (calls,
total time, self time = span time minus child spans) are kept for every
call; the raw span log is capped at ``SPAN_CAP`` spans so memory stays
small however many field operations a pass makes.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys
import time
from array import array

# (span name, defining module, attribute path) -- "Class.method" for methods.
# Names follow the module that owns the function.
TRACED = (
    ("field.mul", "obc.field", "CycloNum.__mul__"),
    ("field.mul", "obc.field", "CycloNum.__rmul__"),
    ("field.conj", "obc.field", "CycloNum.conj"),
    ("field.inverse", "obc.field", "CycloNum.inverse"),
    ("field.enclosure", "obc.field", "CycloNum.enclosure"),
    ("field.sign", "obc.field", "sign_of_real"),
    ("geometry.intersect", "obc.geometry", "intersect_halfplanes"),
    ("geometry.locate", "obc.geometry", "ConvexPolygon.locate"),
    ("geometry.cross_scaled", "obc.geometry", "cross_scaled"),
    ("dynamics.select_vertex", "obc.dynamics", "select_vertex"),
    ("dynamics.step", "obc.dynamics", "step"),
    ("dynamics.iterate", "obc.dynamics", "iterate"),
    ("periodic.tile_from_code", "obc.periodic", "tile_from_code"),
    ("periodic.is_lambda_stable", "obc.periodic", "is_lambda_stable"),
    ("periodic.is_symmetric", "obc.periodic", "is_symmetric"),
    ("periodic.validate_periodic", "obc.periodic", "validate_periodic"),
    ("atlas.search_tiles", "obc.atlas", "search_tiles"),
    ("atlas.save_atlas", "obc.atlas", "save_atlas"),
    ("atlas.load_atlas", "obc.atlas", "load_atlas"),
    ("square.lambda_k", "obc.square", "lambda_k"),
    ("square.count_attractors", "obc.square", "count_attractors_detail"),
)

ROOT_SPAN = "bench.pass"
SPAN_CAP = 100_000


class _Frame:
    __slots__ = ("sid", "name", "child", "data")

    def __init__(self, sid, name):
        self.sid = sid
        self.name = name
        self.child = 0.0
        self.data = None


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # derived counters (sign paths, half-planes, ...)
        self.stack = []
        self.next_id = 0
        self.dropped = 0
        self.span_name = array("i")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches = []  # (owner, attr, original)

    # -- recording -----------------------------------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key, value):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def parent_name(self):
        # called from a "before" hook: the new frame is not pushed yet
        return self.stack[-1].name if self.stack else None

    def _name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return i

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; hooks see the frame via ``self.stack``."""
        clock = time.perf_counter
        h0 = clock()
        nid = self._name_id(name)
        stack = self.stack
        caller = stack[-1] if stack else None
        frame = _Frame(self.next_id, name)
        self.next_id += 1
        before = _BEFORE.get(name)
        if before is not None:
            args = before(self, frame, args, kwargs) or args
        stack.append(frame)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            after = _AFTER.get(name)
        finally:
            t1 = clock()
            stack.pop()
            dur = t1 - t0
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame.child
            if len(self.span_id) < SPAN_CAP:
                self.span_name.append(nid)
                self.span_id.append(frame.sid)
                self.span_parent.append(caller.sid if caller else -1)
                self.span_start.append(t0)
                self.span_end.append(t1)
            else:
                self.dropped += 1
            if caller is not None:
                # the caller's self time excludes the callee and this bookkeeping
                caller.child += clock() - h0
        if after is not None:
            h1 = clock()
            after(self, frame, args, result)
            if caller is not None:
                caller.child += clock() - h1
        return result

    # -- patching -------------------------------------------------------------

    def install(self):
        """Wrap every traced name in every loaded ``obc`` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _obc_modules()
        for name, modname, path in TRACED:
            owner_mod = sys.modules[modname]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner_mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrapper(name, original))
                continue
            original = getattr(owner_mod, path)
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def restore(self):
        """Put back every original; safe to call twice."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self):
        return [(owner, attr, original) for owner, attr, original in self._patches]

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrapper(self, name, fn):
        span = self.span

        def traced(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- output ---------------------------------------------------------------

    def dump(self, path):
        """Write aggregates and the (capped) span log as one JSON file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "names": self.names,
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in self.stats.items()},
            "counts": self.counts,
            "spans_dropped": self.dropped,
            "spans": {
                "id": self.span_id.tolist(),
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        os.replace(tmp, path)


def _obc_modules():
    import obc

    for info in pkgutil.iter_modules(obc.__path__, "obc."):
        importlib.import_module(info.name)
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "obc" or k.startswith("obc."))]


# -- hooks: counters read from arguments and results, outside the timed span.
# A "before" hook may return replacement positional arguments.


def _sign_before(tr, frame, args, kwargs):
    z = args[0]
    if z.is_zero():
        tr.add("field.sign.zero", 1)
    elif z.is_rational():
        tr.add("field.sign.rational", 1)
    frame.data = 0  # enclosure calls made directly under this sign span


def _sign_after(tr, frame, args, result):
    if frame.data:
        tr.add("field.sign.refined", 1)


def _enclosure_before(tr, frame, args, kwargs):
    parent = tr.stack[-1] if tr.stack else None
    if parent is not None and parent.name == "field.sign":
        parent.data += 1
        prec = args[1] if len(args) > 1 else kwargs["prec"]
        tr.maximum("field.sign.prec_max_bits", prec)


def _intersect_before(tr, frame, args, kwargs):
    if not args:
        args = (kwargs.pop("constraints"),)
    cons = list(args[0])  # the callee takes any iterable; count it once
    tr.add("geometry.intersect.halfplanes", len(cons))
    tr.add("geometry.intersect.distinct", len(set(cons)))
    return (cons,) + tuple(args[1:])


def _iterate_before(tr, frame, args, kwargs):
    if tr.parent_name() == "atlas.search_tiles":
        tr.add("atlas.seeds_iterated", 1)


def _search_after(tr, frame, args, atlas):
    prov = atlas.provenance
    tr.add("atlas.seeds", prov["seeds"])
    tr.add("atlas.singular_skipped", prov["singular_skipped"])
    tr.add("atlas.undecided", prov["undecided"])


def _save_after(tr, frame, args, result):
    tr.add("atlas.bytes_written", os.path.getsize(args[1]))


def _count_after(tr, frame, args, result):
    tr.add("square.samples_undecided", result[2])


_BEFORE = {
    "field.sign": _sign_before,
    "field.enclosure": _enclosure_before,
    "geometry.intersect": _intersect_before,
    "dynamics.iterate": _iterate_before,
}
_AFTER = {
    "field.sign": _sign_after,
    "atlas.search_tiles": _search_after,
    "atlas.save_atlas": _save_after,
    "square.count_attractors": _count_after,
}

# Span names whose ``.calls`` and ``.self_s`` are reported per layer.
CALLS = (
    "field.mul", "field.conj", "field.inverse", "field.sign", "field.enclosure",
    "geometry.intersect", "geometry.locate", "geometry.cross_scaled",
    "dynamics.select_vertex", "dynamics.step", "dynamics.iterate",
    "periodic.tile_from_code", "periodic.validate_periodic",
)
SELF_ONLY = (
    "periodic.is_lambda_stable", "periodic.is_symmetric",
    "atlas.search_tiles", "atlas.save_atlas", "atlas.load_atlas",
    "square.lambda_k", "square.count_attractors",
)
COUNTS = (
    "field.sign.zero", "field.sign.rational", "field.sign.refined",
    "field.sign.prec_max_bits", "geometry.intersect.halfplanes",
    "atlas.bytes_written", "atlas.seeds", "atlas.singular_skipped",
    "atlas.undecided", "square.samples_undecided",
)


def layer_metrics(tracer, entries, coeff_bits):
    """Per-layer metrics of one traced pass.

    ``entries`` is the number of atlas entries the pass produced (for
    ``periodic.tile_builds_per_entry``); ``coeff_bits`` the largest
    coefficient bit height in its outputs.
    """
    stats = tracer.stats
    counts = tracer.counts
    out = {}
    for name in CALLS:
        calls, _, self_s = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = stats.get(name, (0, 0.0, 0.0))[2]
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    halfplanes = counts.get("geometry.intersect.halfplanes", 0)
    out["geometry.intersect.distinct_frac"] = (
        counts.get("geometry.intersect.distinct", 0) / halfplanes if halfplanes else 0.0
    )
    builds = out["periodic.tile_from_code.calls"]
    out["periodic.tile_builds_per_entry"] = builds / entries if entries else 0.0
    out["atlas.seeds_covered"] = out["atlas.seeds"] - counts.get("atlas.seeds_iterated", 0)
    out["field.coeff_bits.max"] = coeff_bits
    return out
