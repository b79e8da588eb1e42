"""The benchmark's tracer (perfbench/spans.py) wraps package functions and
methods by name, so deleting or renaming one of them crashes every traced
benchmark run.  This loads the tracer by path and runs it over a small
solve, so that such a change fails here too."""

import importlib.util
from pathlib import Path

import taylorpde
from taylorpde import FIXTURES, _backend, dsl, series, solver

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_a_solve_and_comes_off():
    spans = _load_spans()
    originals = {
        "solve": solver.solve,
        "mul": series.TimeSeries.__dict__["mul"],
        "series_product": _backend.series_product,
    }
    fx = FIXTURES["coupled"]
    tracer = spans.install(spans.Tracer())
    try:
        assert solver.solve is not originals["solve"]
        sol = solver.solve(fx.system, fx.initial, 8)
        solver.residual(fx.system, sol)
        # residual runs the evaluator itself, not eval_rhs; call it
        # directly so that its wrapper runs too.
        dsl.eval_rhs(fx.system, sol.series, 7)
    finally:
        tracer.uninstall()
    assert solver.solve is originals["solve"] and taylorpde.solve is originals["solve"]
    assert series.TimeSeries.__dict__["mul"] is originals["mul"]
    assert _backend.series_product is originals["series_product"]
    names = {span[0] for span in tracer.spans}
    assert {"solver.solve", "solver.residual", "dsl.eval_rhs", "kernels.series_product"} <= names
    # The per-layer counters see the kernel: coupled has 3 products of two
    # series, one (f - c)^2 per field (its products with a constant are
    # row scales).  The solve and eval_rhs make one series_product call
    # per product per order, 8 orders each; the residual is given every
    # order at once and makes one call of 8 rows per product.  Its
    # multiply-adds are counted.
    products = [span for span in tracer.spans if span[0] == "kernels.series_product"]
    assert len(products) == 3 * 8 + 3 + 3 * 8
    assert tracer.counts["kernels.madds"] > 0
