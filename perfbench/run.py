"""End-to-end and per-layer benchmark of taylorpde.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload nonlinear-solve --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):

    nonlinear-solve    solve + residual, coupled fixture, order 60
    dispersive-solve   solve + residual, KdV soliton, order 50
    divergence-report  `table` and `figure` through cli.main, then a Pade
                       sweep on a riccati order-40 solve

One process runs one closed-loop client: the next task starts when the
previous one ends, until --seconds have passed.  The seed chooses only
check points, never the work.  Outputs are scored after each task,
outside its timed interval.  The package is imported from ./src and run
as it is; nothing needs building.

Times are corrected for the machine's drifting speed (speed.py): a fixed
reference loop is timed between measurements and each wall time is scaled
to a machine where that loop takes 30 ms.  The metadata line keeps the
raw wall times and the reference's median.

--trace 0 prints the end-to-end metrics:

    task_s        median corrected seconds per task
    task_tail_s   highest percentile of task time with ten samples beyond
                  it (the minimum when fewer than eleven tasks ran); its
                  percentile and sample counts are in the metadata line
    tasks_per_s   tasks completed per second of task time
    setup_s       median corrected time of a fresh interpreter that
                  imports taylorpde.cli and builds the workload's inputs
    peak_rss_mb   peak resident memory of this process
    digits_lost   16 minus accurate_digits (see below), so never 0
    ok_ratio      1 minus fail_ratio (see below), so never 0

--trace 1 alternates untraced and traced tasks and prints the per-layer
numbers: per traced task, calls and self wall seconds of each wrapped
layer (spans.py), kernel work counts, scaling exponents from solves at
N/2 and N, solver.max_abs_coeff as log10 of the largest |coefficient|, and

    accurate_digits  mean of clip(-log10|value - oracle|, 0, 16) over the
                     check points; a failed operation scores 0
    fail_ratio       share of operations that raised a TaylorPdeError,
                     gave a non-finite value or wrote bytes unlike the
                     first task's (Pade refusals count here)

The last line of stdout is one compact JSON object with `correct`,
`attempted` and `failed` counted in tasks (a task fails when an output is
missing, non-finite or differs from the first task's; a refused Pade fit
is the package's documented answer, counted in fail_ratio only) and
`metrics`, every value a float.  With --trace 1 it carries the PER_LAYER
subset, which keeps it under 2,000 characters; every traced number is in
the table above it and under "traced" in the run metadata, which is
printed on the line before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fresh interpreters timed per run for setup_s, after one untimed start
# that may write bytecode caches.
SETUP_REPEATS = 9
# Untimed repeats of the order-N/2 solve for the scaling exponent.
HALF_REPEATS = 3

SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
src, bench, name, seed = sys.argv[1:5]
sys.path[:0] = [src, bench]
import taylorpde.cli
t1 = time.perf_counter()
import workloads
workloads.WORKLOADS[name].inputs(int(seed))
print(json.dumps({"import_s": t1 - t0}))
"""

LAYER_SELF = (
    "kernels.series_product",
    "kernels.conv",
    "dsl.eval_rhs",
    "series.mul",
    "series.dx",
    "series.eval",
    "solver.solve",
    "solver.residual",
    "pade.fit",
    "pade.eval",
    "report.error_table",
    "report.divergence_figure",
    "cli.main",
)
LAYER_CALLS = (
    "kernels.series_product",
    "kernels.conv",
    "dsl.eval_rhs",
    "series.dx",
    "series.eval",
    "pade.fit",
)
LAYER_TOTAL = ("solver.residual", "report.to_csv", "report.render_figure_svg")

# The traced numbers of the result line: those an optimisation of a layer
# is most likely to move.  The rest (trace.task_s, the small self times,
# derived rates, sizes, accurate_digits and fail_ratio, which digits_lost
# and ok_ratio carry end to end) stay in the table and the metadata.
PER_LAYER = (
    "kernels.series_product.calls",
    "kernels.series_product.self_s",
    "kernels.conv.calls",
    "kernels.conv.self_s",
    "kernels.madds",
    "kernels.bytes_computed",
    "kernels.madds_exponent",
    "dsl.eval_rhs.calls",
    "dsl.eval_rhs.self_s",
    "dsl.parse_system.s",
    "series.mul.self_s",
    "series.dx.calls",
    "series.dx.self_s",
    "series.tanhpoly_new",
    "series.eval.calls",
    "series.eval.self_s",
    "solver.solve.self_s",
    "solver.residual.s",
    "solver.solve_s_exponent",
    "solver.max_abs_coeff",
    "pade.fit.calls",
    "pade.fit.refused",
    "pade.fit.self_s",
    "report.error_table.self_s",
    "report.divergence_figure.self_s",
    "report.to_csv.s",
    "report.render_figure_svg.s",
    "cli.import_s",
    "trace.unattributed_s",
)

UNITS = {
    "task_s": "s",
    "task_tail_s": "s",
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "digits_lost": "digits",
    "ok_ratio": "ratio",
    "solver.max_degree": "degree",
    "solver.max_abs_coeff": "log10",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".madds_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes_computed") or name.endswith("bytes_out"):
        return "B"
    if name.endswith("_exponent") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("digits"):
        return "digits"
    return "count"


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it.  With fewer than 21 samples that sits at
    or below the median, and with fewer than 11 it is the minimum."""
    s = sorted(samples)
    n = len(s)
    k = max(0, n - 11)
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def measure_setup(timer, workload: str, seed: int) -> tuple[list, list, list]:
    """Wall and corrected seconds of fresh interpreters building the
    workload's inputs, and the import time each reports."""
    walls, corrected, imports = [], [], []
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), workload, str(seed)]
    for i in range(SETUP_REPEATS + 1):
        proc, wall, corr = timer(
            subprocess.run, cmd, cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise SystemExit(f"setup child failed:\n{proc.stderr}")
        if i:
            walls.append(wall)
            corrected.append(corr)
            imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return walls, corrected, imports


def metadata(args, taylorpde) -> dict:
    git_sha = None  # a benchmark checkout is usually not a git repository
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": taylorpde.BACKEND,
    }


def layer_metrics(tracer, task_s: float) -> dict:
    """Calls and self seconds per layer for the spans of one traced task."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for name, _parent, start, end, own in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + (end - start)
    out = {f"{n}.self_s": self_s.get(n, 0.0) for n in LAYER_SELF}
    out.update({f"{n}.calls": calls.get(n, 0) for n in LAYER_CALLS})
    out.update({f"{n}.s": total_s.get(n, 0.0) for n in LAYER_TOTAL})
    out["trace.task_s"] = task_s
    out["trace.unattributed_s"] = task_s - sum(self_s.values())
    return out


def run(args) -> tuple[dict, dict, dict]:
    import spans
    import taylorpde
    import workloads
    from speed import Timer
    from taylorpde.dsl import parse_system

    workload = workloads.WORKLOADS[args.workload]
    meta = metadata(args, taylorpde)
    timer = Timer()
    setup_wall, setup_s, imports = measure_setup(timer, args.workload, args.seed)

    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.workload == "divergence-report":
            inp = workload.inputs(args.seed, out_dir)
        else:
            inp = workload.inputs(args.seed)
        parse_s = statistics.median(
            sum(_timed(parse_system, text) for text in inp["sources"]) for _ in range(21)
        )

        # Corrected seconds per task (see speed.py); wall seconds for the
        # traced tasks, whose spans are wall time too.
        untraced, untraced_wall, traced, layers, counts = [], [], [], [], []
        ops = failed_ops = failed_tasks = 0
        problems: list[str] = []
        solve_n: list[float] = []
        first, first_score = None, {}
        window_start = time.perf_counter()
        i = 0
        min_tasks = 2 if args.trace else 1
        while i < min_tasks or time.perf_counter() - window_start < args.seconds:
            tracer = None
            if args.trace and i % 2 == 1:
                tracer = spans.install(spans.Tracer())
            try:
                out, wall, corrected = timer(workload.task, inp)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is None:
                untraced.append(corrected)
                untraced_wall.append(wall)
                if "solve_s" in out:
                    solve_n.append(out["solve_s"] * corrected / wall)
            else:
                traced.append(corrected)
                layers.append(layer_metrics(tracer, wall))
                counts.append(tracer.counts)
            score = workload.score(inp, out, first)
            if first is None and "gate" in score:
                first, first_score = out, score
            ops += score["ops"]
            failed_ops += score["failed"]
            if score["problems"]:
                failed_tasks += 1
                problems.extend(score["problems"])
            i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    accurate = statistics.fmean(first_score.get("digits") or [0.0])
    fail_ratio = failed_ops / ops
    gate = first_score.get("gate", ["the first task produced no output to check"])
    problems = gate + problems
    correct = not problems
    meta["tasks"] = len(untraced) + len(traced)
    meta["task_wall_s"] = [round(t, 4) for t in untraced_wall]
    meta["wall_median"] = {
        "task_s": statistics.median(untraced_wall),
        "setup_s": statistics.median(setup_wall),
    }
    meta["reference_s"] = statistics.median(timer.references)
    if "sha256" in first_score:
        meta["report_sha256"] = first_score["sha256"]
    if problems:
        meta["problems"] = sorted(set(problems))[:20]
    summary = {"correct": correct, "attempted": meta["tasks"], "failed": failed_tasks}

    if not args.trace:
        value, pct, beyond = tail(untraced)
        meta["task_tail"] = {"percentile": pct, "samples": len(untraced), "beyond": beyond}
        metrics = {
            "task_s": statistics.median(untraced),
            "task_tail_s": value,
            "tasks_per_s": len(untraced) / sum(untraced),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "digits_lost": workloads.MAX_DIGITS - accurate,
            "ok_ratio": 1.0 - fail_ratio,
        }
        return summary, metrics, meta

    # Scaling in the order: solves at N/2 and N, timed untraced and
    # counted traced.
    half = workload.order // 2
    half_s = statistics.median(
        timer(workloads.solve_at, inp, half)[2] for _ in range(HALF_REPEATS)
    )
    madds = {}
    for n in (half, workload.order):
        tracer = spans.install(spans.Tracer())
        try:
            workloads.solve_at(inp, n)
        finally:
            tracer.uninstall()
        madds[n] = tracer.counts["kernels.madds"]

    metrics = {name: statistics.fmean(m[name] for m in layers) for name in layers[0]}
    for name in ("kernels.madds", "kernels.bytes_computed", "series.tanhpoly_new"):
        metrics[name] = statistics.fmean(c[name] for c in counts)
    metrics["pade.fit.refused"] = statistics.fmean(c["pade.fit.errors"] for c in counts)
    kernel_s = metrics["kernels.series_product.self_s"] + metrics["kernels.conv.self_s"]
    metrics["kernels.madds_per_s"] = metrics["kernels.madds"] / kernel_s
    metrics["kernels.madds_exponent"] = math.log2(madds[workload.order] / madds[half])
    metrics["solver.solve_s_exponent"] = math.log2(statistics.median(solve_n) / half_s)
    metrics["solver.max_degree"] = first_score.get("max_degree", 0)
    coeff = first_score.get("max_abs_coeff", 0.0)
    metrics["solver.max_abs_coeff"] = math.log10(coeff) if coeff > 0 else 0.0
    metrics["dsl.parse_system.s"] = parse_s
    metrics["report.bytes_out"] = first_score.get("bytes_out", 0)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_ratio"] = statistics.fmean(traced) / statistics.fmean(untraced)
    metrics["accurate_digits"] = accurate
    metrics["fail_ratio"] = fail_ratio
    return summary, metrics, meta


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="taylorpde benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("nonlinear-solve", "dispersive-solve", "divergence-report"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "taylorpde" / "__init__.py").is_file():
        print(f"no taylorpde sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import taylorpde

    if Path(taylorpde.__file__).resolve().parent != SRC / "taylorpde":
        print(f"imported taylorpde from {taylorpde.__file__}, not {SRC}", file=sys.stderr)
        return 2

    summary, metrics, meta = run(args)
    for name, value in metrics.items():
        print(f"{name:34} {value:>16.6g} {unit_of(name)}")
    reported = list(metrics)
    if args.trace:
        meta["traced"] = metrics
        reported = PER_LAYER
    print(json.dumps(meta, sort_keys=True))
    summary["metrics"] = {
        name: {"value": float(metrics[name]), "unit": unit_of(name)} for name in reported
    }
    print(json.dumps(summary, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
