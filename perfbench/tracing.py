"""In-memory spans around the calls into each layer of the package.

The package itself is not modified. ``instrument`` rebinds every public
function of the layer modules, in every layer module's namespace, to a
wrapper that records a span; calls between modules (``spectra`` calling
``specfun.kummer_m``) and within a module through its globals (``verify``
calling ``radial_eigenvalues``) are therefore both seen. Private helpers
are not wrapped, so their time counts as self time of the public function
that called them.

A span is ``[name, start_ns, end_ns, parent_index, op_id, count]``. A
layer's self time is the sum over its spans of the duration minus the part
covered by child spans.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("specfun", "spectra", "polar", "cartesian", "verify", "cli")


def _grid_points(args, kwargs):
    # radial_eigenvalues(potential, params, state, cfg, k, ...): the coarse
    # grid plus, with Richardson extrapolation, the doubled fine grid
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    return cfg.n_points * (3 if cfg.richardson else 1)


def _points(position, keyword):
    """Counter: the number of points in one array argument."""
    def count(args, kwargs):
        grid = kwargs.get(keyword, args[position] if len(args) > position
                          else None)
        return 0 if grid is None else int(np.size(grid))
    return count


# a span's count: grid points for the eigensolve, evaluation points for the
# functions whose cost is quoted per point
COUNTERS = {"verify.radial_eigenvalues": _grid_points,
            "spectra.reduced_density": _points(1, "r"),
            "specfun.kummer_m": _points(2, "x"),
            "specfun.laguerre": _points(2, "x"),
            "specfun.jacobi": _points(3, "x"),
            "polar.theta_eigenfunction": _points(3, "theta")}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.enabled = True

    def _open(self, name, count=0):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0, 0, parent, self.op, count])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span, start):
        span[1], span[2] = start, time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield span
        finally:
            self._close(span, start)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name, counter(args, kwargs) if counter else 0)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, start)

        traced.__wrapped__ = fn
        return traced

    def _within(self, span, ancestor):
        while span[3] >= 0:
            span = self.spans[span[3]]
            if span[0] == ancestor:
                return True
        return False

    def select(self, name, ops, within=None):
        """Spans called `name` whose op id is in `ops` and, when `within` is
        given, that run inside a span called `within`."""
        return [s for s in self.spans if s[0] == name and s[4] in ops
                and (within is None or self._within(s, within))]

    def durations_ms(self, name, ops):
        return [(s[2] - s[1]) / 1e6 for s in self.select(name, ops)]

    def count(self, name, ops):
        return sum(s[5] for s in self.select(name, ops))

    def us_per_point(self, name, ops, within=None):
        """Summed duration over summed points, or None without spans."""
        spans = self.select(name, ops, within)
        points = sum(s[5] for s in spans)
        if not points:
            return None
        return sum(s[2] - s[1] for s in spans) / 1e3 / points

    def self_ms(self, ops):
        """Self time per layer in ms, over the spans whose op id is in ops."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = {}
        for s, covered in zip(self.spans, child):
            if s[4] in ops:
                layer = s[0].split(".")[0]
                out[layer] = out.get(layer, 0.0) + (s[2] - s[1] - covered) / 1e6
        return out


def instrument(tracer):
    """Route every call into a public layer function through `tracer`."""
    modules = {name: importlib.import_module(f"dunkl_spectra.{name}")
               for name in LAYERS}
    wrappers = {}
    for name, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = tracer.wrap(f"{name}.{attr}", fn)
    targets = list(modules.values()) + [importlib.import_module("dunkl_spectra")]
    for mod in targets:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
