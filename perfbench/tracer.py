"""Spans around the calls into each toeplitzlab module, from outside it.

Tracer.install replaces, in every layer module's namespace, each function
that module imported from another layer (plus the few same-module entry
points in OWN_ENTRY_POINTS) with a wrapper that records a span: layer, name,
start, end and the enclosing span.  Nothing under src/ changes; uninstall
puts the originals back.  A layer's self time is the time of its spans minus
the part covered by their child spans.
"""

import functools
import importlib
import inspect
import time

PACKAGE = "toeplitzlab"
LAYERS = ("tower", "skeleton", "window", "periods", "cells", "measures",
          "density", "verify", "cli")

# functions called through their own module's globals, so a wrapper in that
# namespace sees them: the J-set builders the skeleton calls, the window
# kernels density imports at call time, the registry dispatch run_all uses,
# and the entry points worker.py calls through the module
OWN_ENTRY_POINTS = {
    "skeleton": ("j_set", "j_set_recursive"),
    "window": ("window_values", "window_levels", "materialize_window"),
    "density": ("density_methods",),
    "verify": ("run_check", "registry_self_test"),
}

J_SET_SPANS = ("skeleton.j_set", "skeleton.j_set_recursive")


def vm_hwm_mib():
    """Peak resident set size of this process so far (Linux VmHWM)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "info")

    def __init__(self, layer, name, start, parent):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = None

    @property
    def seconds(self):
        return self.end - self.start


def _observe(span, args, result):
    """Counts recorded at the boundary where the work happens."""
    if span.name == "verify.run_check":
        span.info = {"check": args[1], "hwm_mib": vm_hwm_mib()}
    elif span.name in J_SET_SPANS or span.name in (
            "window.window_values", "window.window_levels"):
        span.info = {"cells": len(result)}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, clock(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                _observe(span, args, result)
                return result
            finally:
                span.end = clock()
                stack.pop()
        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        owner = {mod.__name__: layer for layer, mod in modules.items()}
        for layer, mod in modules.items():
            own = OWN_ENTRY_POINTS.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ not in owner:
                    continue
                if obj.__module__ == mod.__name__ and attr not in own:
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(owner[obj.__module__], obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summaries ---------------------------------------------------------

    def _self_times(self):
        """(span, its time minus the time of its child spans) per span."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.seconds
        return [(s, s.seconds - child.get(id(s), 0.0)) for s in self.spans]

    def self_seconds(self):
        """Self time per layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for s, self_s in self._self_times():
            out[s.layer] += self_s
        return out

    def outermost(self, names):
        """Spans named in `names` with no enclosing span of those names."""
        out = []
        for s in self.spans:
            if s.name not in names:
                continue
            p = s.parent
            while p is not None and p.name not in names:
                p = p.parent
            if p is None:
                out.append(s)
        return out

    def totals(self, names):
        """(seconds, cells) over the outermost spans named in `names`."""
        spans = self.outermost(names)
        return (sum(s.seconds for s in spans),
                sum((s.info or {}).get("cells", 0) for s in spans))

    def checks(self):
        """Per registry check: seconds and the process peak RSS after it."""
        return {s.info["check"]: {"s": s.seconds, "peak_mib": s.info["hwm_mib"]}
                for s in self.spans
                if s.name == "verify.run_check" and s.info is not None}

    def table(self, top=12):
        """Span names by self time, for the printed trace summary."""
        rows = {}
        for s, self_s in self._self_times():
            calls, total = rows.get(s.name, (0, 0.0))
            rows[s.name] = (calls + 1, total + self_s)
        ranked = sorted(rows.items(), key=lambda kv: -kv[1][1])[:top]
        return [{"span": k, "calls": c, "self_s": t} for k, (c, t) in ranked]
