"""In-process tracing of gasket, installed from outside the library.

Every function and method defined in a ``gasket`` module is replaced, in
every gasket module namespace that holds it, by a wrapper that counts
calls and accumulates inclusive and self time.  Self time is a call's
duration minus the time of the wrapped calls made inside it, so the self
times of all wrapped functions tile the outermost call exactly.

Calls of the functions in ``SPAN_FUNCTIONS`` (the boundaries from
``cli.main`` down to the enumeration, reduction and output layers) are
also kept as spans in memory: (id, parent id, request, name, start, end).
Hot helpers such as ``canon`` only feed the aggregated counters, so
memory stays bounded by the number of boundary calls.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import types
from fractions import Fraction

SPAN_FUNCTIONS = frozenset({
    "cli.main", "classify.reduce_to_ground", "classify.reduced_form",
    "classify.root_quadruple", "classify.super_integrality_class",
    "classify.orbit_census", "complete.complete",
    "packing.generate_packing", "packing.generate_superpacking",
    "packing.locate_in_unit_square", "svg.render_svg",
    "serialize.packed_to_json", "verify.run_suite",
})

# Results whose size is a work count: name -> how to measure the result.
_RESULT_SIZES = {
    "packing.generate_packing": ("packing.circles", len),
    "packing.generate_superpacking": ("packing.circles", len),
    "svg.render_svg": ("svg.bytes", lambda doc: len(doc.encode())),
    "classify.reduce_to_ground": ("classify.reduce_letters",
                                  lambda res: len(res[0])),
}


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, inclusive seconds, self seconds]
        self.counts = {}     # work counts derived from results
        self.spans = []
        self.request = 0
        self._stack = []     # per active wrapped call: [child seconds]
        self._span_stack = [0]
        self._span_ids = iter(range(1, 1 << 62))
        self._gc = [0, 0.0, 0.0]  # collections, seconds, start of current
        self._fractions = [0]

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter
        sized = _RESULT_SIZES.get(name)
        span = name in SPAN_FUNCTIONS
        spans, span_stack, counts = self.spans, self._span_stack, self.counts
        span_ids = self._span_ids

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if span:
                sid = next(span_ids)
                parent = span_stack[-1]
                span_stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if span:
                    span_stack.pop()
                    spans.append((sid, parent, self.request, name, t0, t1))
            if sized is not None:
                key, size = sized
                counts[key] = counts.get(key, 0) + size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every gasket function where any gasket module refers to it."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")}
        wrapped = {}

        def wrapper_for(fn, name):
            if fn not in wrapped:
                wrapped[fn] = self.wrap(name, fn)
            return wrapped[fn]

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and \
                        value.__module__ in modules:
                    layer = value.__module__.rsplit(".", 1)[-1]
                    setattr(mod, attr, wrapper_for(
                        value, f"{layer}.{value.__qualname__}"))
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(value, mod.__name__.rsplit(".", 1)[-1])
        verify = modules.get(package + ".verify")
        if verify is not None:
            for suite, fn in list(verify.SUITES.items()):
                verify.SUITES[suite] = self.wrap(f"verify.suite.{suite}", fn)
        argparse.ArgumentParser.parse_args = self.wrap(
            "cli.parse_args", argparse.ArgumentParser.parse_args)

    def _wrap_class(self, cls, layer):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(value, types.FunctionType):
                setattr(cls, attr, self.wrap(name, value))
            elif isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, value.__func__)))
            elif isinstance(value, property) and value.fget is not None:
                setattr(cls, attr, property(self.wrap(name, value.fget),
                                            value.fset, value.fdel, value.__doc__))

    # -- runtime observers ------------------------------------------------

    def observe_runtime(self):
        gcs, fractions = self._gc, self._fractions
        clock = time.perf_counter

        def on_gc(phase, info):
            if phase == "start":
                gcs[2] = clock()
            else:
                gcs[0] += 1
                gcs[1] += clock() - gcs[2]

        gc.callbacks.append(on_gc)
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            fractions[0] += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)

    # -- report -----------------------------------------------------------

    def report(self):
        return {
            "stats": self.stats,
            "counts": dict(self.counts,
                           **{"runtime.gc_collections": self._gc[0],
                              "runtime.fraction_new.calls": self._fractions[0]}),
            "gc_s": self._gc[1],
            "spans": self.spans,
        }
