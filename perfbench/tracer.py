"""Span wrappers installed around qschur's public functions from outside.

The package is not edited: ``Tracer.install`` rebinds class attributes and
module attributes after import.  A name is rebound in its defining module
and in every ``qschur`` module that imported it (``qschur.identities.qbinom``
and ``qschur.coefficients.qbinom`` are separate bindings).  Sweep cells are
wrapped through the identity registry, whose entries hold their own
references to the ``verify_*`` functions.

High-frequency spans are aggregated by name as ``[calls, extra, total_s,
self_s]``, where self time is the span's duration minus the time of the
spans it caused and ``extra`` is a span-specific count (term pairs of a
product, partitions yielded, failures returned).  Raw spans are kept only
for ops and for sweep cells.  Generators are timed per resumption, so the
consumer's work between two items is not charged to the enumerator.
Cache hit ratios come from ``cache_info()`` of the original ``lru_cache``
objects, read before and after each op; the wrappers keep ``cache_info``
working for callers.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import time

# (label, module, attribute) of the lru_cache tables whose use is counted
CACHES = (
    ("coefficients.poch_qpow", "qschur.coefficients", "poch_qpow"),
    ("coefficients.qbinom", "qschur.coefficients", "qbinom"),
    ("coefficients.qmultinomial3", "qschur.coefficients", "qmultinomial3"),
    ("identities.build_GL", "qschur.identities", "build_GL"),
    ("theorems.census.vector", "qschur.theorems", "_vector_census"),
    ("theorems.census.type1", "qschur.theorems", "_type1_census"),
    ("theorems.census.s", "qschur.theorems", "_s_census"),
    ("theorems.census.s_mirrored", "qschur.theorems", "_s_census_mirrored"),
    ("theorems.census.g3", "qschur.theorems", "_g3_census"),
)

# (span name, module, attribute) of module-level functions
FUNCTIONS = (
    ("coefficients.qbinom", "qschur.coefficients", "qbinom"),
    ("coefficients.poch_qpow", "qschur.coefficients", "poch_qpow"),
    ("coefficients.qmultinomial3", "qschur.coefficients", "qmultinomial3"),
    ("partitions.count_V", "qschur.partitions", "count_V"),
    ("theorems.check", "qschur.theorems", "check_theorem1"),
    ("theorems.check", "qschur.theorems", "check_theorem2"),
    ("theorems.check", "qschur.theorems", "check_theorem3"),
    ("theorems.check", "qschur.theorems", "check_schur"),
    ("theorems.check", "qschur.theorems", "check_goellnitz"),
    ("bijection.forward_bounded", "qschur.bijection", "forward_bounded"),
    ("bijection.inverse", "qschur.bijection", "inverse"),
    ("identities.build_GL", "qschur.identities", "build_GL"),
    ("cli.main", "qschur.cli", "main"),
)

GENERATORS = (
    ("partitions.iter_type1", "qschur.partitions", "iter_type1"),
    ("partitions.iter_schur_gap", "qschur.partitions", "iter_schur_gap"),
)


def _product_pairs(poly):
    """Term pairs a LaurentPoly product multiplies: len * len, or len for
    a scalar factor."""
    def weigh(args, result) -> int:
        if result is NotImplemented:
            return 0
        other = args[1]
        return len(args[0]) * (len(other) if isinstance(other, poly) else 1)
    return weigh


def _sweep_failures(args, result) -> int:
    return len(result.failures)


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


class Tracer:
    def __init__(self):
        self._stack = [0.0]   # child time accumulated by each open span
        self.stats: dict[str, list] = {}
        self.cells: list[float] = []
        self.ops: list[dict] = []
        self.caches: dict[str, list] = {}
        self.missing: list[str] = []
        self._tables: dict = {}

    # -- wrappers -----------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0, 0.0, 0.0])

    def span(self, name, fn, weigh=None, keep=None):
        """Wrap ``fn`` in a span; ``weigh(args, result)`` adds to the
        span's extra count, ``keep`` collects each duration."""
        stat, stack, clock = self._stat(name), self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[2] += dt
                stat[3] += dt - inner
                if keep is not None:
                    keep.append(dt)
            if weigh is not None:
                stat[1] += weigh(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def gen_span(self, name, fn):
        """Wrap a generator function; each resumption is one timed span
        and each item yielded adds one to the extra count."""
        stat, stack, clock = self._stat(name), self._stack, time.perf_counter

        def resumed(gen):
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    inner = stack.pop()
                    stack[-1] += dt
                    stat[2] += dt
                    stat[3] += dt - inner
                stat[1] += 1
                yield item

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return resumed(fn(*args, **kwargs))

        return functools.update_wrapper(wrapper, fn)

    # -- installation -------------------------------------------------------

    def _rebind(self, module: str, attr: str, wrap) -> None:
        owner = sys.modules.get(module)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = wrap(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qschur" or name.startswith("qschur.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _rebind_method(self, cls, attr: str, wrap) -> None:
        original = cls.__dict__[attr]
        wrapper = wrap(original)
        for key, value in list(cls.__dict__.items()):
            if value is original:  # also catches aliases such as __radd__
                setattr(cls, key, wrapper)

    def install(self) -> None:
        from qschur import identities, qseries

        for label, module, attr in CACHES:
            table = getattr(sys.modules.get(module), attr, None)
            if table is None or not hasattr(table, "cache_info"):
                self.missing.append(f"{module}.{attr}.cache_info")
                continue
            self._tables[label] = table
            self.caches[label] = [0, 0]

        poly, series = qseries.LaurentPoly, qseries.MarkerSeries
        self._rebind_method(poly, "__mul__",
                            lambda f: self.span("qseries.poly_mul", f, _product_pairs(poly)))
        self._rebind_method(poly, "__add__", lambda f: self.span("qseries.poly_add", f))
        self._rebind_method(poly, "__sub__", lambda f: self.span("qseries.poly_add", f))
        self._rebind_method(poly, "divide_exact",
                            lambda f: self.span("qseries.divide_exact", f))
        self._rebind_method(series, "__mul__", lambda f: self.span("qseries.series_mul", f))

        for name, module, attr in FUNCTIONS:
            self._rebind(module, attr, lambda f, n=name: self.span(n, f))
        for name, module, attr in GENERATORS:
            self._rebind(module, attr, lambda f, n=name: self.gen_span(n, f))
        self._rebind("qschur.identities", "sweep",
                     lambda f: self.span("identities.sweep", f, _sweep_failures))

        registry = identities.IDENTITIES  # shared by the CLI, so patched in place
        for tag, spec in list(registry.items()):
            cell = self.span("identities.cell", spec.fn, keep=self.cells)
            registry[tag] = dataclasses.replace(spec, fn=cell)

    # -- per-op accounting --------------------------------------------------

    def cache_snapshot(self) -> dict:
        out = {}
        for label, table in self._tables.items():
            info = table.cache_info()
            out[label] = (info.hits, info.misses)
        return out

    def record_op(self, op: dict, result: dict, before: dict) -> None:
        after = self.cache_snapshot()
        deltas = {}
        for label, (hits, misses) in after.items():
            dh, dm = hits - before[label][0], misses - before[label][1]
            self.caches[label][0] += dh
            self.caches[label][1] += dm
            deltas[label] = [dh, dm]
        self.ops.append({"op": op.get("argv") or op.get("label"),
                         "start": result["start"], "end": result["end"],
                         "code": result["code"], "caches": deltas})

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        return {"stats": self.stats, "caches": self.caches, "missing": self.missing,
                "cells": {"count": len(self.cells),
                          "p50_us": percentile(self.cells, 0.50) * 1e6,
                          "p99_us": percentile(self.cells, 0.99) * 1e6}}

    def raw(self) -> dict:
        return {"ops": self.ops, "cells_s": self.cells, **self.summary()}
