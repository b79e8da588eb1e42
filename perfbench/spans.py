"""Layer spans recorded from outside the package.

A Tracer replaces public functions of the taylorpde layers with wrappers,
in every taylorpde module that bound them at import, and records one span
per outermost call of a layer: (name, parent layer, start, end, self
seconds).  One Tracer serves one task, so its spans share a task.  Self
time is the span's duration minus the time spent inside wrapped callees,
wrapper bookkeeping included, so the self times of a task plus the time no
span covers add up to the task's wall time.  A call that re-enters the
layer it is already in (TimeSeries.eval calling TanhPoly.__call__) belongs
to the outer span.  Spans stay in memory until the run aggregates them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, str | None, float, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn, count):
        stack = self._stack
        spans = self.spans
        counts = self.counts

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1][0] if stack else None
                spans.append((name, parent, start, end, end - start - frame[1]))
                if not ok:
                    counts[name + ".errors"] += 1
                elif count is not None:
                    count(counts, args, result)
                if stack:
                    stack[-1][1] += clock() - start

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module, attr, name, count=None):
        """Wrap module.attr and every alias of it in taylorpde modules."""
        original = getattr(module, attr)
        wrapper = self._span(name, original, count)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "taylorpde":
                continue
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._patch(mod, key, wrapper)

    def method(self, cls, attr, name, count=None):
        self._patch(cls, attr, self._span(name, cls.__dict__[attr], count))

    def counter(self, cls, attr, name):
        """Count calls of a method without timing them."""
        original = cls.__dict__[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(cls, attr, counted)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _conv_work(counts, args, out):
    a, b = args
    counts["kernels.madds"] += len(a) * len(b)
    counts["kernels.bytes_computed"] += 8 * (len(a) + len(b) + len(out))


def _product_work(counts, args, out):
    a, b, order = args
    la = [len(row) for row in a[: order + 1]]
    lb = [len(row) for row in b[: order + 1]]
    counts["kernels.madds"] += sum(
        la[i] * lb[k - i] for k in range(order + 1) for i in range(k + 1)
    )
    counts["kernels.bytes_computed"] += 8 * (sum(la) + sum(lb) + sum(len(row) for row in out))


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer of the imported taylorpde package.

    Kernel work is counted as multiply-adds (len(a)*len(b) per row pair)
    and as computed bytes: 8 per input and output coefficient, each
    touched once, which ignores caches and re-reads.
    """
    from taylorpde import _backend, cli, dsl, pade, report, series, solver

    tracer.function(_backend, "conv", "kernels.conv", _conv_work)
    tracer.function(_backend, "series_product", "kernels.series_product", _product_work)
    tracer.function(dsl, "eval_rhs", "dsl.eval_rhs")
    tracer.method(series.TimeSeries, "mul", "series.mul")
    tracer.method(series.TimeSeries, "dx", "series.dx")
    tracer.method(series.TimeSeries, "eval", "series.eval")
    tracer.method(series.TanhPoly, "__call__", "series.eval")
    tracer.counter(series.TanhPoly, "__init__", "series.tanhpoly_new")
    tracer.function(solver, "solve", "solver.solve")
    tracer.function(solver, "residual", "solver.residual")
    tracer.function(pade, "pade_fit", "pade.fit")
    tracer.method(pade.PadeApproximant, "__call__", "pade.eval")
    tracer.function(report, "error_table", "report.error_table")
    tracer.function(report, "divergence_figure", "report.divergence_figure")
    tracer.function(report, "to_csv", "report.to_csv")
    tracer.function(report, "render_figure_svg", "report.render_figure_svg")
    tracer.function(cli, "main", "cli.main")
    return tracer
