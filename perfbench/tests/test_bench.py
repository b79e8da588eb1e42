"""The benchmark keeps its contract: result format, seed-independent cost,
spans that add up, and a refusal to run without the package sources.

Run from the repository root:  python3 -m pytest perfbench/tests
(about two minutes: it runs the benchmark itself several times).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def bench(workload, seed, seconds, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_traced = {}


def traced(workload):
    """(result line, its length, every traced number from the metadata)."""
    if workload not in _traced:
        proc = bench(workload, 7, 1, 1)
        lines = proc.stdout.splitlines()
        _traced[workload] = (result(proc), len(lines[-1]), json.loads(lines[-2])["traced"])
    return _traced[workload]


def values(res):
    return {name: m["value"] for name, m in res["metrics"].items()}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 31)]) == (20.0, 100.0 * 20 / 30, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_product_work_counts_every_row_pair():
    counts = {"kernels.madds": 0, "kernels.bytes_computed": 0}
    a, b = [[1.0, 2.0], [1.0, 2.0, 3.0]], [[1.0], [1.0, 2.0]]
    spans._product_work(counts, (a, b, 1), [[1.0, 2.0], [1.0, 2.0, 3.0]])
    assert counts["kernels.madds"] == 2 * 1 + (2 * 2 + 3 * 1)
    assert counts["kernels.bytes_computed"] == 8 * (5 + 3 + 5)


def test_spans_add_up_and_wrappers_come_off():
    import taylorpde
    from taylorpde import FIXTURES, solver

    fx = FIXTURES["transport"]
    original = solver.solve
    tracer = spans.install(spans.Tracer())
    try:
        assert solver.solve is not original and taylorpde.report.solve is solver.solve
        start = time.perf_counter()
        solver.residual(fx.system, solver.solve(fx.system, fx.initial, 12))
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert solver.solve is original and taylorpde.solve is original
    names = {s[0] for s in tracer.spans}
    assert {"solver.solve", "solver.residual", "dsl.eval_rhs", "series.dx", "kernels.conv",
            "series.mul", "kernels.series_product"} <= names
    assert ("kernels.conv", "series.dx") in {s[:2] for s in tracer.spans}
    unattributed = elapsed - sum(s[4] for s in tracer.spans)
    assert 0.0 <= unattributed < 0.2 * elapsed


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_check_points_not_work(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    counts, points = [], []
    for seed in (1, 2):
        args = (seed, tmp_path) if name == "divergence-report" else (seed,)
        inp = workload.inputs(*args)
        points.append(inp.get("points", inp.get("pade_points")))
        tracer = spans.install(spans.Tracer())
        try:
            workload.task(inp)
        finally:
            tracer.uninstall()
        calls = {}
        for span in tracer.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        # Which Pade fits are refused, and so skip evaluation, depends on x.
        work = dict(tracer.counts)
        work.pop("pade.fit.errors", None)
        calls.pop("pade.eval", None)
        counts.append((work, calls))
    assert points[0] != points[1]
    assert counts[0] == counts[1]


def test_task_s_does_not_depend_on_seed():
    a, b = (values(result(bench("divergence-report", seed, 8, 0)))["task_s"] for seed in (1, 2))
    assert abs(a - b) / min(a, b) <= BOUND["task_s"]


def test_untraced_result_line():
    res = result(bench("divergence-report", 3, 1, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == spec
    assert all(type(m["value"]) is float and m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_result_line(name):
    res, length, v = traced(name)
    assert res["correct"] and res["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert list(spec) == list(run.PER_LAYER)
    assert {n: m["unit"] for n, m in res["metrics"].items()} == spec
    assert values(res) == {n: float(v[n]) for n in spec}
    assert all(type(x) is float for x in values(res).values())
    assert length < 2000
    covered = sum(x for n, x in v.items() if n.endswith(".self_s"))
    covered += v["report.to_csv.s"] + v["report.render_figure_svg.s"]
    assert covered + v["trace.unattributed_s"] == pytest.approx(v["trace.task_s"], rel=1e-9)


def test_kernel_dominates_the_nonlinear_solve():
    v = traced("nonlinear-solve")[2]
    selfs = {n: x for n, x in v.items() if n.endswith(".self_s")}
    assert max(selfs, key=selfs.get) == "kernels.series_product.self_s"


def test_reading_and_formatting_dominate_the_report():
    v = traced("divergence-report")[2]
    read_side = sum(v[n] for n in ("series.eval.self_s", "report.error_table.self_s",
                                   "report.divergence_figure.self_s", "report.to_csv.s",
                                   "report.render_figure_svg.s"))
    assert read_side > v["kernels.series_product.self_s"] + v["kernels.conv.self_s"]


def test_seed_state_defects_are_measured():
    report = traced("divergence-report")[2]
    assert report["pade.fit.refused"] > 0 and report["fail_ratio"] > 0
    assert traced("dispersive-solve")[2]["accurate_digits"] < 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("divergence-report", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
