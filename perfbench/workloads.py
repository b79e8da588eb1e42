"""The benchmark's three workloads: inputs from a seed, one task, scoring.

Every workload fixes its systems, truncation orders and grid sizes, so a
task costs the same for every seed; the seed chooses only check points
(x values, t fractions of the radius, Pade x values).  Check x values are
stratified, one jittered point per equal slice of a range, so that
accuracy and failure shares over a run depend little on the seed.

Tasks call the package through module attributes (solver.solve, cli.main,
pade.pade_fit) so that a Tracer's wrappers see every call.  Scoring runs
after the timed window.  Accuracy compares outputs with closed forms:
TravelingWave.__call__ for the tanh fixtures and the soliton in oracle.py
for KdV, never with a replay of the solver's float operations.  The gates
are the checks that decide `correct`; they test what the package promises
at the seed state, and accuracy past that is measured, not gated.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import time
from pathlib import Path

from taylorpde import TanhPoly, TaylorPdeError, cli, pade, solver
from taylorpde.dsl import parse_system
from taylorpde.fixtures import FIXTURES

import oracle

clock = time.perf_counter

# Float digits that can be right at all; errors below 1e-16 score 16.
MAX_DIGITS = 16.0


def digits(value, exact: float) -> float:
    """clip(-log10 |value - exact|, 0, 16); a failed or non-finite value scores 0."""
    if value is None or not math.isfinite(value):
        return 0.0
    err = abs(value - exact)
    if err == 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, max(0.0, -math.log10(err)))


def stratified(rng: random.Random, lo: float, hi: float, n: int, share: float = 1.0) -> list[float]:
    """One point per equal slice of [lo, hi], jittered over the middle
    `share` of its slice."""
    width = (hi - lo) / n
    return [lo + (k + 0.5 + share * (rng.random() - 0.5)) * width for k in range(n)]


def solve_at(inp: dict, order: int):
    """The workload's own solve at another order, for scaling exponents."""
    return solver.solve(inp["system"], inp["initial"], order)


class SolveWorkload:
    """One task is solve + residual on one system at a fixed order.

    Check points: x = 0 plus one x per slice of [-6, 6] (128 slices),
    each at a t fraction of R(x) drawn from [0.45, 0.55], for every field.
    """

    def __init__(self, name, order, sources, build, exact, radius, gate):
        self.name = name
        self.order = order
        self.sources = sources  # system texts, timed by the parse metric
        self._build = build  # () -> (system, initial profiles)
        self._exact = exact  # (field, x, t) -> closed-form value
        self._radius = radius  # x -> convergence radius in t
        self._gate = gate  # (inputs, solution) -> list of failed checks

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        system, initial = self._build()
        xs = [0.0] + stratified(rng, -6.0, 6.0, 128)
        fractions = [rng.uniform(0.45, 0.55) for _ in xs]
        points = [
            (i, x, f * self._radius(x))
            for x, f in zip(xs, fractions)
            for i in range(len(system.fields))
        ]
        return {
            "sources": self.sources,
            "system": system,
            "initial": initial,
            "order": self.order,
            "xs": xs,
            "points": points,
        }

    def task(self, inp: dict) -> dict:
        t0 = clock()
        try:
            sol = solver.solve(inp["system"], inp["initial"], inp["order"])
        except TaylorPdeError as exc:
            return {"error": repr(exc)}
        t1 = clock()
        try:
            res = solver.residual(inp["system"], sol)
        except TaylorPdeError as exc:
            return {"solution": sol, "solve_s": t1 - t0, "error": repr(exc)}
        return {"solution": sol, "solve_s": t1 - t0, "residual": res}

    def score(self, inp: dict, out: dict, first: dict | None) -> dict:
        """Failed operations of one task; accuracy and gates on the first."""
        if "solution" not in out:
            return {"ops": 2, "failed": 2, "problems": [out["error"]]}
        problems = []
        if "residual" not in out:
            problems.append(f"residual raised {out['error']}")
        elif not math.isfinite(out["residual"]):
            problems.append(f"residual is {out['residual']!r}")
        sol = out["solution"]
        if first is not None:
            if sol.series != first["solution"].series:
                problems.append("coefficients differ from the first task's")
            return {"ops": 2, "failed": len(problems), "problems": problems}
        coeffs = [c for s in sol.series for p in s.coeffs for c in p.coeffs]
        if not all(math.isfinite(c) for c in coeffs):
            problems.append("non-finite series coefficient")
        return {
            "ops": 2,
            "failed": len(problems),
            "problems": problems,
            "digits": [
                digits(sol.series[i].eval(x, t), self._exact(i, x, t))
                for i, x, t in inp["points"]
            ],
            "gate": self._gate(inp, sol),
            "max_degree": max(p.degree for s in sol.series for p in s.coeffs),
            "max_abs_coeff": max(abs(c) for c in coeffs),
        }


# ---- nonlinear-solve: the coupled Riccati fixture -------------------------

_COUPLED = FIXTURES["coupled"]


def _coupled_gate(inp, sol) -> list[str]:
    """Well inside the disk (t = 0.1 R) the series matches the kinks."""
    bad = []
    for x in inp["xs"]:
        for i, wave in enumerate(_COUPLED.waves):
            t = 0.1 * wave.convergence_radius(x)
            err = abs(sol.series[i].eval(x, t) - wave(x, t))
            if not err <= 1e-9:
                bad.append(f"field {i} at x={x:.4g}, t=0.1R: error {err:.3g}")
    return bad


NONLINEAR = SolveWorkload(
    "nonlinear-solve",
    order=60,
    sources=(_COUPLED.source,),
    build=lambda: (_COUPLED.system, _COUPLED.initial),
    exact=lambda i, x, t: _COUPLED.waves[i](x, t),
    radius=_COUPLED.waves[0].convergence_radius,
    gate=_coupled_gate,
)


# ---- dispersive-solve: the KdV soliton ------------------------------------

# Float rounding amplifies about 100x per order on this system, so only
# the first orders can be held to the exact rows.
_KDV_GATE_ORDER = 8
_KDV_GATE_RTOL = 1e-9
_KDV_ROWS = oracle.kdv_rows(_KDV_GATE_ORDER)


def _kdv_gate(inp, sol) -> list[str]:
    """Rows 0..8 agree with the exact integer recurrence at every check x."""
    bad = []
    series = sol.series[0]
    for x in inp["xs"]:
        for j, row in enumerate(_KDV_ROWS):
            exact, scale = oracle.row_value(row, x)
            err = abs(series.coeffs[j](x) - exact)
            if not err <= _KDV_GATE_RTOL * scale:
                bad.append(f"row {j} at x={x:.4g}: error {err:.3g}, scale {scale:.3g}")
    return bad


DISPERSIVE = SolveWorkload(
    "dispersive-solve",
    order=50,
    sources=(oracle.KDV_SOURCE,),
    build=lambda: (parse_system(oracle.KDV_SOURCE), (TanhPoly(oracle.KDV_INITIAL),)),
    exact=lambda i, x, t: oracle.soliton(x, t),
    radius=oracle.soliton_radius,
    gate=_kdv_gate,
)


# ---- divergence-report: the paper's table, figure and a Pade sweep -------

_RICCATI = FIXTURES["riccati"]
_TABLE_XS = tuple(-10.0 + 0.5 * k for k in range(41))
_TABLE_ORDERS = (5, 10, 15, 20)
_TABLE_T = "0.0125:0.5:0.0125"  # 40 values
_FIGURE_SAMPLES = 2001
_PADE_ORDER = 40
_PADE_PAIRS = tuple(
    (L, M)
    for L in range(_PADE_ORDER + 1)
    for M in (L - 1, L, L + 1)
    if M >= 1 and L + M <= _PADE_ORDER
)
_FILES = {
    "table": ("error_table.csv",),
    "figure": ("divergence.csv", "divergence.svg"),
}


class ReportWorkload:
    """One task writes the error table and the divergence figure through
    cli.main, then fits every [L/M] with M in {L-1, L, L+1} and L+M <= 40
    to a riccati order-40 solve at five x values and evaluates each fit
    past the radius.

    Check points: five Pade x values, one per slice of [-4, 4], each at a
    t fraction of R(x) drawn from [1.2, 1.3].  A refused fit scores 0.
    The x jitter stays in the middle quarter of each slice: the number of
    accepted fits climbs from 24 to 40 of 59 as |x| goes from 1 to 2.5,
    and full-slice jitter would move ok_ratio by ~7% from seed to seed.
    """

    name = "divergence-report"
    order = _PADE_ORDER

    def inputs(self, seed: int, out_dir: Path | None = None) -> dict:
        rng = random.Random(seed)
        xs = stratified(rng, -4.0, 4.0, 5, share=0.25)
        wave = _RICCATI.waves[0]
        ts = [rng.uniform(1.2, 1.3) * wave.convergence_radius(x) for x in xs]
        out = str(out_dir) if out_dir is not None else "."
        return {
            "sources": (_COUPLED.source, _RICCATI.source),
            "system": _RICCATI.system,
            "initial": _RICCATI.initial,
            "order": _PADE_ORDER,
            "pade_points": list(zip(xs, ts)),
            "out_dir": out_dir,
            "argv": {
                "table": [
                    "table",
                    "--fixture", "coupled",
                    "--orders", ",".join(str(n) for n in _TABLE_ORDERS),
                    "--x=" + ",".join(repr(x) for x in _TABLE_XS),
                    "--t", _TABLE_T,
                    "--out", out,
                ],
                "figure": [
                    "figure",
                    "--fixture", "riccati",
                    "--orders", "5,15,25",
                    "--pade", "7,8",
                    "--samples", str(_FIGURE_SAMPLES),
                    "--svg",
                    "--out", out,
                ],
            },
        }

    def task(self, inp: dict) -> dict:
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for command, argv in inp["argv"].items():
                codes[command] = cli.main(argv)
        t0 = clock()
        try:
            sol = solver.solve(inp["system"], inp["initial"], inp["order"])
        except TaylorPdeError as exc:
            return {"codes": codes, "error": repr(exc)}
        solve_s = clock() - t0
        values = []
        for x, t in inp["pade_points"]:
            coeffs = [p(x) for p in sol.series[0].coeffs]
            for L, M in _PADE_PAIRS:
                try:
                    values.append(pade.pade_fit(coeffs, L, M)(t))
                except TaylorPdeError:
                    values.append(None)
        return {"codes": codes, "solution": sol, "solve_s": solve_s, "values": values}

    def score(self, inp: dict, out: dict, first: dict | None) -> dict:
        """Failed operations: a CLI command that exits non-zero or writes
        bytes unlike the first task's, a raising solve, and every Pade fit
        that was refused or evaluates to a non-finite value."""
        out_dir = inp["out_dir"]
        hashes, size = {}, 0
        for names in _FILES.values():
            for name in names:
                data = (out_dir / name).read_bytes() if (out_dir / name).exists() else b""
                size += len(data)
                hashes[name] = hashlib.sha256(data).hexdigest()
        out["sha256"] = hashes
        problems = []
        for command, code in out["codes"].items():
            if code != 0:
                problems.append(f"{command} exited {code}")
            elif first is not None and any(
                hashes[name] != first["sha256"][name] for name in _FILES[command]
            ):
                problems.append(f"{command} wrote bytes unlike the first task's")
        fits = len(_PADE_PAIRS) * len(inp["pade_points"])
        ops = len(out["codes"]) + 1 + fits
        if "solution" not in out:
            problems.append(f"solve raised {out['error']}")
            return {"ops": ops, "failed": len(problems) + fits, "problems": problems}
        values = out["values"]
        refused = sum(v is None for v in values)
        nonfinite = sum(v is not None and not math.isfinite(v) for v in values)
        result = {
            "ops": ops,
            "failed": len(problems) + refused + nonfinite,
            "problems": problems + ([f"{nonfinite} non-finite Pade values"] if nonfinite else []),
            "bytes_out": size,
            "sha256": hashes,
        }
        if first is not None:
            return result
        wave = _RICCATI.waves[0]
        exact = [wave(x, t) for x, t in inp["pade_points"] for _ in _PADE_PAIRS]
        sol = out["solution"]
        result.update(
            digits=[digits(v, e) for v, e in zip(values, exact)],
            gate=_report_gate(out_dir) if not problems else ["no report to check"],
            max_degree=max(p.degree for p in sol.series[0].coeffs),
            max_abs_coeff=max(p.max_abs() for p in sol.series[0].coeffs),
        )
        return result


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _report_gate(out_dir: Path) -> list[str]:
    """The written table and figure have the promised shape, their
    `exact` columns are the closed-form waves, and the table's order-20
    rows well inside the disk (t <= 0.1 R) match them."""
    bad = []
    header, rows = _rows(out_dir / "error_table.csv")
    expected = 3 * len(_TABLE_XS) * 40 * len(_TABLE_ORDERS)
    if len(rows) != expected:
        bad.append(f"table has {len(rows)} rows, expected {expected}")
    col = {name: k for k, name in enumerate(header)}
    fields = _COUPLED.system.fields
    for row in rows:
        wave = _COUPLED.waves[fields.index(row[col["field"]])]
        x, t = float(row[col["x"]]), float(row[col["t"]])
        exact = wave(x, t)
        if float(row[col["exact"]]) != exact:
            bad.append(f"table exact column at x={x}, t={t} is not the wave")
        if int(row[col["order"]]) == 20 and t <= 0.1 * wave.convergence_radius(x):
            err = abs(float(row[col["approx"]]) - exact)
            if not err <= 1e-9:
                bad.append(f"table order 20 at x={x}, t={t}: error {err:.3g}")
    header, rows = _rows(out_dir / "divergence.csv")
    if len(rows) != _FIGURE_SAMPLES or header[:2] != ["t", "exact"]:
        bad.append("figure CSV has the wrong shape")
    wave = _RICCATI.waves[0]
    for row in rows:
        if float(row[1]) != wave(0.0, float(row[0])):
            bad.append(f"figure exact column at t={row[0]} is not the wave")
            break
    svg = (out_dir / "divergence.svg").read_text()
    if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
        bad.append("figure SVG is not a complete document")
    return bad[:20]


REPORT = ReportWorkload()

WORKLOADS = {w.name: w for w in (NONLINEAR, DISPERSIVE, REPORT)}
