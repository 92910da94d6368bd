"""Span tracer for the benchmark's traced run.

`Tracer.install()` wraps every public function of the six badtri modules,
the public methods (and `__init__`) of their public classes, and the
`QuadRat` operators.  Each wrapper records one span -- name, parent,
start, end -- into flat in-memory arrays.  A wrapped function is rebound
in every badtri module namespace that holds it, because `theorems`,
`delone` and `cli` import names directly; methods are replaced on the
class itself, so the classes and `isinstance` stay untouched.
`uninstall()` puts every original object back.

Nothing under `src/` is modified: the wrappers live only in memory and
only between `install()` and `uninstall()`.  The tracer assumes one
thread, which holds while `BADTRI_THREADS` is unset.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import types
from array import array

import numpy as np

LAYERS = ("quadfield", "cf", "theorems", "gifs", "delone", "cli")

# QuadRat methods counted by `quadfield.ops`: arithmetic, inverse, sign,
# floor, comparisons and to_decimal.
QUADRAT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse", "sign",
    "floor", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "to_decimal",
)


def _dense_passes(args, kwargs, result):
    """Grid passes run by check_relatively_dense: h starts at R/10 and halves."""
    if kwargs.get("h", args[3] if len(args) > 3 else None) is not None:
        return 1
    big_r = kwargs.get("R", args[1] if len(args) > 1 else None)
    return int(round(math.log2(big_r / 10 / result.h))) + 1


# Counters read off a call's arguments and result: span name -> (counter, fn).
PROBES = {
    "gifs.subdivide": ("gifs.tiles", lambda a, k, r: len(r)),
    "theorems.search_triples": ("theorems.search.survivors", lambda a, k, r: len(r)),
    "delone.check_relatively_dense": ("delone.dense_passes", _dense_passes),
}


def badtri_modules():
    """The package and its six layer modules, package first."""
    return [importlib.import_module("badtri")] + [
        importlib.import_module(f"badtri.{layer}") for layer in LAYERS
    ]


def _targets(layer_mod, layer):
    """(owner, attribute, span name) for every callable traced in one layer."""
    quadrat = getattr(layer_mod, "QuadRat", None) if layer == "quadfield" else None
    out = []
    for name, obj in vars(layer_mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != layer_mod.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            out.append((layer_mod, name, f"{layer}.{name}"))
        elif isinstance(obj, type):
            for attr, val in vars(obj).items():
                if not isinstance(val, types.FunctionType):
                    continue
                if obj is quadrat:
                    keep = attr in QUADRAT_OPS or not attr.startswith("_")
                else:
                    keep = attr == "__init__" or not attr.startswith("_")
                if keep:
                    out.append((obj, attr, f"{layer}.{name}.{attr}"))
    return out


class Tracer:
    """Records spans around calls into the badtri layers."""

    def __init__(self):
        self.names = []  # span name per id
        self.layer_of = []  # layer index per id
        self._ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counters = {}
        self._saved = []  # (owner, attribute, original object)

    # -- install / uninstall -------------------------------------------------

    def _id(self, span_name, layer):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
            self.layer_of.append(LAYERS.index(layer))
        return self._ids[span_name]

    def _wrap(self, fn, nid, probe):
        perf = time.perf_counter
        stack = self._stack
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if probe is not None:
                counter, count = probe
                counters[counter] = counters.get(counter, 0) + count(args, kwargs, result)
            return result
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = badtri_modules()
        wrapped = {}  # id(original function) -> wrapper
        for layer, layer_mod in zip(LAYERS, modules[1:]):
            for owner, attr, span_name in _targets(layer_mod, layer):
                orig = vars(owner)[attr]
                wrapper = self._wrap(orig, self._id(span_name, layer), PROBES.get(span_name))
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                if not isinstance(owner, type):
                    wrapped[id(orig)] = (orig, wrapper)
        # Rebind module-level functions wherever another module imported them.
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- spans ---------------------------------------------------------------

    def reset(self):
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self.counters.clear()

    def arrays(self):
        """Copies of the recorded spans as numpy columns."""
        return (
            np.array(self._name, dtype=np.int64),
            np.array(self._parent, dtype=np.int64),
            np.array(self._start, dtype=np.float64),
            np.array(self._end, dtype=np.float64),
        )

    def save(self, path):
        """Write the recorded spans (and the name table) to an .npz file."""
        name, parent, start, end = self.arrays()
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 names=np.array(self.names), layers=np.array(LAYERS))

    def summary(self, within=()):
        """Per-name calls, self and inclusive seconds, and per-layer self seconds.

        Self time of a span is its duration minus its direct children's
        durations.  Inclusive time of a name counts only its outermost
        spans, so recursion is not counted twice.  `within` lists
        (inner, outer) span-name pairs; the result counts the inner spans
        that start inside an outer one.
        """
        name, parent, start, end = self.arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_t, minlength=n_names)
        layer_self = np.bincount(
            np.array(self.layer_of, dtype=np.int64)[name], weights=self_t,
            minlength=len(LAYERS),
        )
        order = np.argsort(name, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(calls)])
        inclusive, outer_spans = {}, {}
        for k, span_name in enumerate(self.names):
            idx = order[bounds[k]:bounds[k + 1]]
            s, e = start[idx], end[idx]
            prev_end = np.concatenate([[-np.inf], np.maximum.accumulate(e)[:-1]])
            outer = s >= prev_end
            inclusive[span_name] = float((e - s)[outer].sum())
            outer_spans[span_name] = (s, s[outer], e[outer])
        empty = (np.empty(0),) * 3
        nested = {}
        for inner, outer in within:
            inner_starts = outer_spans.get(inner, empty)[0]
            _, o_start, o_end = outer_spans.get(outer, empty)
            k = np.searchsorted(o_start, inner_starts, side="right") - 1
            ok = k >= 0
            nested[(inner, outer)] = int(np.count_nonzero(inner_starts[ok] < o_end[k[ok]]))
        return {
            "calls": {self.names[k]: int(calls[k]) for k in range(n_names)},
            "self_s": {self.names[k]: float(self_s[k]) for k in range(n_names)},
            "inclusive_s": inclusive,
            "layer_self_s": {layer: float(layer_self[i]) for i, layer in enumerate(LAYERS)},
            "counters": dict(self.counters),
            "within": nested,
            "spans": len(dur),
        }
