"""Traced run: spans and counts around each layer, recorded from outside.

The package is not edited.  ``Tracer.installed()`` replaces each layer's
public function at every module of the package that binds it (``wedge`` is
bound in ``exterior``, ``ekr``, ``factor`` and the package namespace, for
example), and wraps the constructor or method of the two classes in place.
Each call records a span (id, layer, start, end, parent span), so a layer's
self time is its span minus its child spans.  The tracer's own bookkeeping
around each span is timed too, and reported as the cost of tracing.  Derived work counts come from
the arguments and results of the calls.  Spans stay in memory until
``write`` puts them in a file.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
import time
from math import comb

perf_counter = time.perf_counter

PACKAGE = "wedgeshift"

# (module, name) of each traced layer; "Subspace" and "SetFamily" mean their
# constructors, "Subspace.pluecker" the method.
LAYERS = (
    ("serialize", "parse_input"),
    ("subspace", "Subspace"),
    ("subspace", "Subspace.pluecker"),
    ("limits", "limit_shift"),
    ("limits", "pluecker_limit"),
    ("limits", "initial_subspace"),
    ("limits", "triangular_fixed_point"),
    ("families", "combinatorial_shift"),
    ("families", "enumerate_families"),
    ("families", "SetFamily"),
    ("ekr", "self_annihilating"),
    ("exterior", "wedge"),
    ("exterior", "apply_linear"),
    ("ekr", "shifted_ekr_verify"),
    ("ekr", "hilton_milner_verify"),
    ("factor", "linear_factors"),
    ("factor", "common_annihilator"),
)

# Derived counts each layer reports besides .calls and .self_pct, with units.
EXTRA = {
    "subspace.Subspace": {"cells": "count"},
    "limits.limit_shift": {"noop_calls": "count", "noop_pct": "%", "changed_ratio": "ratio"},
    "families.combinatorial_shift": {"changed_calls": "count"},
    "families.enumerate_families": {"families": "count", "first_pct": "%"},
    "ekr.self_annihilating": {"row_pairs": "count"},
    "exterior.wedge": {"term_pairs": "count"},
}


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for module, name in LAYERS:
        layer = f"{module}.{name}"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_pct"] = "%"
        for key, unit in EXTRA.get(layer, {}).items():
            units[f"{layer}.{key}"] = unit
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Layer:
    __slots__ = ("index", "calls", "self_s", "busy_s", "counts")

    def __init__(self, index: int):
        self.index = index
        self.calls = 0
        self.self_s = 0.0  # busy time minus the child spans inside it
        self.busy_s = 0.0  # summed span durations
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.spans: list[tuple[int, int, float, float, int]] = []
        self._next_id = 0
        self._stack = [[-1, 0.0]]  # [span id, time covered by child spans]
        self._patches: list[tuple[object, str, object]] = []
        self.own_s = 0.0  # time spent in the tracer's bookkeeping, outside every span
        self.origin = perf_counter()

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer(len(self.layers))
        return self.layers[name]

    def _timed(self, layer: Layer, fn, args, kwargs):
        entry = perf_counter()
        sid = self._next_id
        self._next_id += 1
        frame = [sid, 0.0]
        parent = self._stack[-1]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            parent[1] += dur
            layer.busy_s += dur
            layer.self_s += dur - frame[1]
            self.spans.append((sid, layer.index, start, end, parent[0]))
            self.own_s += (start - entry) + (perf_counter() - end)

    def phase(self, name: str, fn, *args):
        """Run ``fn(*args)`` as one span of harness work, such as a CLI call."""
        layer = self.layer(name)
        layer.calls += 1
        return self._timed(layer, fn, args, {})

    # -- wrappers ----------------------------------------------------------

    def _function(self, name: str, fn, derive=None):
        layer = self.layer(name)

        def wrapper(*args, **kwargs):
            layer.calls += 1
            if derive is None:
                return self._timed(layer, fn, args, kwargs)
            before = layer.busy_s
            result = self._timed(layer, fn, args, kwargs)
            entry = perf_counter()
            derive(layer, args, result, layer.busy_s - before)
            self.own_s += perf_counter() - entry
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, name: str, fn):
        """Each resume of the generator is one span, so the consumer's work
        between yields is not counted as the layer's."""
        layer = self.layer(name)

        def wrapper(*args, **kwargs):
            layer.calls += 1
            gen = fn(*args, **kwargs)
            before = layer.busy_s
            first = True
            while True:
                try:
                    item = self._timed(layer, next, (gen,), {})
                except StopIteration:
                    return
                if first:
                    layer.add("first_s", layer.busy_s - before)
                    first = False
                layer.add("families", 1)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _subspace_init(self, name: str, fn):
        layer = self.layer(name)

        def __init__(self_, order, vectors=()):
            vecs = list(vectors)
            layer.calls += 1
            layer.add("cells", len(vecs) * comb(order.n, order.k))
            return self._timed(layer, fn, (self_, order, vecs), {})

        return __init__

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace `original` wherever a package module binds it by name."""
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        derive = {
            "limits.limit_shift": _limit_shift_counts,
            "families.combinatorial_shift": _shift_counts,
            "ekr.self_annihilating": _self_annihilating_counts,
            "exterior.wedge": _wedge_counts,
        }
        for modname, name in LAYERS:
            module = sys.modules[f"{PACKAGE}.{modname}"]
            layer = f"{modname}.{name}"
            if name == "Subspace":
                cls = module.Subspace
                self._set(cls, "__init__", self._subspace_init(layer, cls.__init__))
            elif name == "SetFamily":
                cls = module.SetFamily
                self._set(cls, "__init__", self._function(layer, cls.__init__))
            elif "." in name:
                cls_name, method = name.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, self._function(layer, cls.__dict__[method]))
            elif name == "enumerate_families":
                fn = getattr(module, name)
                self._rebind(fn, self._generator(layer, fn))
            else:
                fn = getattr(module, name)
                self._rebind(fn, self._function(layer, fn, derive.get(layer)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric; a layer the run never called reads 0."""
        out = {}
        for module, name in LAYERS:
            key = f"{module}.{name}"
            layer = self.layers.get(key) or Layer(-1)
            out[f"{key}.calls"] = layer.calls
            out[f"{key}.self_pct"] = 100.0 * layer.self_s / wall_s
            counts = layer.counts
            if key == "limits.limit_shift":
                out[f"{key}.noop_calls"] = counts.get("noop_calls", 0)
                out[f"{key}.noop_pct"] = _pct(counts.get("noop_s", 0.0), layer.busy_s)
                out[f"{key}.changed_ratio"] = (
                    (layer.calls - counts.get("noop_calls", 0)) / layer.calls if layer.calls else 0.0
                )
            elif key == "families.enumerate_families":
                out[f"{key}.families"] = counts.get("families", 0)
                out[f"{key}.first_pct"] = _pct(counts.get("first_s", 0.0), layer.busy_s)
            else:
                for extra in EXTRA.get(key, {}):
                    out[f"{key}.{extra}"] = counts.get(extra, 0)
        out["trace.wall_s"] = wall_s
        out["trace.overhead_s"] = self.own_s
        return out

    def summary(self) -> dict:
        """Absolute per-layer figures, harness spans included."""
        return {
            name: {"calls": layer.calls, "self_s": layer.self_s, "busy_s": layer.busy_s,
                   **layer.counts}
            for name, layer in self.layers.items()
        }

    def write(self, path, header: dict) -> None:
        """Header, layer table and every span, as gzip-compressed JSON lines.

        A span line is [id, layer index, start, end, parent id] with times in
        seconds from the tracer's creation; parent -1 marks a root span."""
        names = sorted(self.layers, key=lambda n: self.layers[n].index)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({**header, "layers": names, "summary": self.summary()}) + "\n")
            o = self.origin
            for sid, idx, start, end, parent in self.spans:
                fh.write(f"[{sid},{idx},{start - o:.9f},{end - o:.9f},{parent}]\n")


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _limit_shift_counts(layer: Layer, args, result, dur: float) -> None:
    if result == args[0]:
        layer.add("noop_calls", 1)
        layer.add("noop_s", dur)


def _shift_counts(layer: Layer, args, result, dur: float) -> None:
    if result != args[0]:
        layer.add("changed_calls", 1)


def _self_annihilating_counts(layer: Layer, args, result, dur: float) -> None:
    layer.add("row_pairs", comb(args[0].dim + 1, 2))


def _wedge_counts(layer: Layer, args, result, dur: float) -> None:
    layer.add("term_pairs", len(args[0].terms) * len(args[1].terms))
