"""Spans around every public function of vacuum1d, recorded from outside.

:func:`Tracer.install` replaces each public function of the traced
modules by a wrapper, in every namespace of the package that binds it
(``cli`` imports ``cylinder_kernel`` by name, ``energy`` reaches
``summation.telescoping_check`` through the module), so a call made by
the package itself becomes a child span of its caller.  A span holds a
name id, start, end, parent index and the term count of the result; spans
stay in flat arrays in memory and are written out once, at the end.

Span names are ``module.function``; a few functions are split further by
their arguments (route, geometry) so each kernel route per geometry is a
layer of its own.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from collections import defaultdict

MODULES = ("spectrum", "orbits", "summation", "kernels", "energy", "verify", "cli")


def _arg(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _geometry_kind(geometry) -> str:
    kind = type(geometry).__name__
    if kind == "Interval":
        return "interval_like" if geometry.left is geometry.right else "interval_mixed"
    return {"TwistedCircle": "twisted", "HalfLine": "halfline"}.get(kind, kind)


def _route(method: str) -> str:
    return method.replace("-", "_")


def _name_cylinder_kernel(args, kwargs) -> str:
    geometry = args[0]
    x = _arg(args, kwargs, 2, "x", None)
    y = _arg(args, kwargs, 3, "y", None)
    method = _arg(args, kwargs, 4, "method", "closed-form")
    kind = _geometry_kind(geometry)
    if method == "closed-form":
        return "kernels.closed_form"
    if kind == "twisted" and method == "image-sum":
        kind = "twisted_diag" if y is None or y == x else "twisted_offdiag"
    elif method == "mode-sum" and kind.startswith("interval"):
        kind = "interval"
    return f"kernels.{_route(method)}.{kind}"


def _name_cylinder_trace(args, kwargs) -> str:
    return f"kernels.cylinder_trace.{_route(_arg(args, kwargs, 2, 'method', 'closed-form'))}"


def _name_total_energy_regularized(args, kwargs) -> str:
    kind = _geometry_kind(args[0])
    kind = {"interval_like": "like", "interval_mixed": "mixed"}.get(kind, kind)
    return f"energy.total_energy_regularized.{kind}"


NAMERS = {
    "kernels.cylinder_kernel": _name_cylinder_kernel,
    "kernels.cylinder_trace": _name_cylinder_trace,
    "energy.total_energy_regularized": _name_total_energy_regularized,
}


def terms_of(result) -> int:
    """Series terms behind a result: ``terms_used`` of a KernelValue or
    SeriesValue, summed over the parts of a LocalDensity; 0 otherwise."""
    terms = getattr(result, "terms_used", None)
    if terms is not None:
        return int(terms)
    total = 0
    for part in ("periodic", "boundary"):
        total += int(getattr(getattr(result, part, None), "terms_used", 0) or 0)
    return total


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.terms = array("q")
        self.fallbacks = 0
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def span(self, name: str):
        """Open a span under the current one; :meth:`close` ends it."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.terms.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, result=None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if result is not None:
            self.terms[idx] = terms_of(result)

    def wrap(self, qualname: str, func):
        namer = NAMERS.get(qualname)
        fixed = None if namer else qualname
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.span(fixed or namer(args, kwargs))
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.close(idx, result)
                if qualname == "kernels.cylinder_kernel" and result is not None:
                    method = _arg(args, kwargs, 4, "method", "closed-form")
                    if method == "closed-form" and result.method != "closed-form":
                        tracer.fallbacks += 1

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules, everywhere it is bound."""
        package = importlib.import_module("vacuum1d")
        namespaces = [package] + [importlib.import_module(f"vacuum1d.{m}") for m in MODULES]
        wrapped: dict[int, object] = {}
        for mod_name in MODULES:
            module = importlib.import_module(f"vacuum1d.{mod_name}")
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                wrapped[id(obj)] = self.wrap(f"{mod_name}.{name}", obj)
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(namespace, name, wrapped[id(obj)])
        verify = importlib.import_module("vacuum1d.verify")
        verify.CHECKS = tuple(
            (name, tol, self.wrap(f"verify.{name}", func)) for name, tol, func in verify.CHECKS
        )

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive and self seconds, mean terms."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "terms": 0}
        )
        for i in range(n):
            rec = agg[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
            rec["terms"] += self.terms[i]
        return dict(agg)

    def write(self, path) -> None:
        """All spans as gzip CSV: id, name, start_us, end_us, parent, terms."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_us,end_us,parent,terms\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},"
                    f"{(self.start[i] - t0) * 1e6:.3f},{(self.end[i] - t0) * 1e6:.3f},"
                    f"{self.parent[i]},{self.terms[i]}\n"
                )
