"""Outside-in tracing of cliffcalc: spans and counts recorded from the benchmark.

`Tracer.installed()` wraps the public functions and methods of every
cliffcalc module, the arithmetic operators of `Taylor` and `Multivector`,
and cli's `json.dumps`, and restores the originals on exit. A function imported by
name into another module (`from .fields import grid_residual`) is a second
binding of the same object, so every module's globals are swept and each
binding of a wrapped function is replaced. Generator functions are left
unwrapped: a span around one would time only the creation of the generator.

Each span adds one call and its self time (duration minus the time covered
by its child spans) to its name; its inclusive time is added only when no
span of the same name is already open, so recursion is not counted twice.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import json
import sys
import types
from time import perf_counter

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__")

# "<module>.<qualname>" of a wrapped function -> span name. Unlisted
# functions keep their qualified name.
SPAN_NAMES = {
    "expr.ScalarExpr.taylor": "expr.taylor",
    "taylor.Taylor.__add__": "taylor.add",
    "taylor.Taylor.__sub__": "taylor.sub",
    "taylor.Taylor.__rsub__": "taylor.sub",
    "taylor.Taylor.__neg__": "taylor.neg",
    "taylor.Taylor.__rmul__": "taylor.scale",
    "taylor.Taylor.__truediv__": "taylor.div",
    "taylor.Taylor.__rtruediv__": "taylor.div",
    **{f"taylor.Taylor.{fn}": "taylor.compose"
       for fn in ("exp", "log", "sin", "cos", "sqrt", "reciprocal")},
    "algebra.Multivector.__add__": "algebra.add",
    "algebra.Multivector.__sub__": "algebra.sub",
    "algebra.Multivector.__neg__": "algebra.neg",
    "algebra.Multivector.__rmul__": "algebra.scale",
    "fields.ExprField.at": "fields.expr_at",
    "fields.DerivedField.at": "fields.derived_at",
    "fields.mv_dirac": "fields.dirac",
    "fields.mv_laplacian": "fields.laplacian",
    "riccati.riccati_residual": "riccati.check",
    "riccati.vector_split_residuals": "riccati.check",
    **{f"darboux.{fn}": "darboux.pipeline"
       for fn in ("darboux_transform", "darboux_scalar_pipeline", "darboux_vector_pipeline",
                  "darboux_kvector_pipeline")},
    "kernel.split_kernel": "kernel.split",
    "suites.identity_suite": "suites.suite",
}


def _span_namers(taylor_cls, multivector_cls):
    """Span names that depend on the operand: a product of two jets (or two
    multivectors) is a convolution, a product with a number is a scaling."""

    def taylor_mul(args):
        return "taylor.mul" if isinstance(args[1], taylor_cls) else "taylor.scale"

    def multivector_mul(args):
        return "algebra.gp" if isinstance(args[1], multivector_cls) else "algebra.scale"

    return {"taylor.Taylor.__mul__": taylor_mul, "algebra.Multivector.__mul__": multivector_mul}


def _coef_pairs(tracer, args, kwargs, result):
    tracer.counts["taylor.mul.coef_pairs"] += len(args[0].coef) * len(args[1].coef)


def _term_pairs(tracer, args, kwargs, result):
    tracer.counts["algebra.gp.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _grid_samples(tracer, args, kwargs, report):
    grid = kwargs["grid"] if "grid" in kwargs else args[1]
    tracer.counts["fields.samples"] += report.samples_used
    tracer.counts["fields.samples_masked"] += grid.samples_per_axis ** grid.n - report.samples_used


def _expr_point(tracer, args, kwargs, result):
    tracer.points.add(tuple(args[1]))


def _end_invocation(tracer, args, kwargs, result):
    tracer.counts["fields.points"] += len(tracer.points)
    tracer.points.clear()


def _report_bytes(tracer, args, kwargs, text):
    tracer.counts["cli.report_bytes"] += len(text)


# span name -> hook(tracer, args, kwargs, result), run after the call returns
COUNTERS = {
    "taylor.mul": _coef_pairs,
    "algebra.gp": _term_pairs,
    "fields.expr_at": _expr_point,
    "fields.grid_residual": _grid_samples,
    "cli.main": _end_invocation,
    "cli.serialize": _report_bytes,
}


class _Span:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Span and count totals, accumulated over every period it is installed."""

    def __init__(self):
        self.spans = {}
        self.counts = collections.Counter()
        self.points = set()  # distinct points an ExprField was evaluated at, this invocation
        self._child_s = []  # per open span: time covered by its children

    def _span(self, name):
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = _Span()
        return span

    def wrap(self, fn, name):
        """`fn` recording a span; `name` is a string or a function of the call's args."""
        name_of = None if isinstance(name, str) else name
        child_s = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            span = self._span(span_name)
            span.calls += 1
            span.depth += 1
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                span.self_s += dt - child_s.pop()
                if child_s:
                    child_s[-1] += dt
                span.depth -= 1
                if span.depth == 0:
                    span.total_s += dt
            hook = COUNTERS.get(span_name)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of cliffcalc's public functions; restore them on exit."""
        from cliffcalc import cli
        from cliffcalc.algebra import Multivector
        from cliffcalc.taylor import Taylor

        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "cliffcalc" or name.startswith("cliffcalc.")) and m is not None]
        dynamic = _span_namers(Taylor, Multivector)
        wrappers = {}  # id(original) -> wrapper
        undo = []

        def wrapper_for(fn, key):
            w = wrappers.get(id(fn))
            if w is None:
                w = wrappers[id(fn)] = self.wrap(fn, dynamic.get(key) or SPAN_NAMES.get(key, key))
            return w

        def patch(owner, attr, new):
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

        try:
            for mod in modules:
                short = mod.__name__.rpartition(".")[2]
                for attr, obj in list(vars(mod).items()):
                    if _own_function(obj, mod) and not attr.startswith("_"):
                        wrapper_for(obj, f"{short}.{obj.__qualname__}")
                    elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                        for meth, raw in list(vars(obj).items()):
                            public = not meth.startswith("_") or meth in OPERATORS
                            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                            if public and _own_function(fn, mod):
                                w = wrapper_for(fn, f"{short}.{fn.__qualname__}")
                                patch(obj, meth, type(raw)(w) if fn is not raw else w)
            # second pass: every module-level binding of a wrapped function
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and id(obj) in wrappers:
                        patch(mod, attr, wrappers[id(obj)])
            patch(cli, "json", _json_with_traced_dumps(self.wrap(json.dumps, "cli.serialize")))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def metrics(self, invocations):
        """Per-invocation totals of every span and count."""
        out = {}
        for name, span in sorted(self.spans.items()):
            out[f"{name}.calls"] = span.calls / invocations
            out[f"{name}.s"] = span.total_s / invocations
            out[f"{name}.self_s"] = span.self_s / invocations
        for name, value in sorted(self.counts.items()):
            out[name] = value / invocations
        return out


def _own_function(obj, mod):
    return (inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and "<locals>" not in obj.__qualname__ and not inspect.isgeneratorfunction(obj))


def _json_with_traced_dumps(traced_dumps):
    """A stand-in for the `json` module as cli sees it, with `dumps` traced."""
    ns = types.SimpleNamespace(**{k: v for k, v in vars(json).items() if not k.startswith("__")})
    ns.dumps = traced_dumps
    return ns
