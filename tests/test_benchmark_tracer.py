"""The benchmark's tracer (perfbench/spans.py) wraps package functions and
methods by name, so deleting or renaming one of them crashes every traced
benchmark run.  This loads the tracer by path and runs it over a small
solve, so that such a change fails here too."""

import importlib.util
from pathlib import Path

import taylorpde
from taylorpde import FIXTURES, _backend, series, solver

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
    fx = FIXTURES["transport"]
    tracer = spans.install(spans.Tracer())
    try:
        assert solver.solve is not originals["solve"]
        solver.residual(fx.system, solver.solve(fx.system, fx.initial, 8))
    finally:
        tracer.uninstall()
    assert solver.solve is originals["solve"] and taylorpde.solve is originals["solve"]
    assert series.TimeSeries.__dict__["mul"] is originals["mul"]
    assert _backend.series_product is originals["series_product"]
    names = {span[0] for span in tracer.spans}
    assert {"solver.solve", "solver.residual", "dsl.eval_rhs", "kernels.series_product"} <= names
