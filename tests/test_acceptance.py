"""Acceptance gate: the headline numerical claims, one visible line each.

Each test prints PASS/FAIL with the claim and its tolerance even under
pytest's capture, then asserts, so a plain `pytest -v` run shows the
scorecard inline.
"""

import math
import subprocess
import sys

import pytest

from taylorpde import (
    FIXTURES,
    TravelingWave,
    empirical_radius,
    error_table,
    pade_fit,
    partial_sum,
    residual,
    solve,
)

KINK = TravelingWave(offset=0.0, amplitude=1.0, wavenumber=1.0, rate=5.5)
GRID_XS = (-15.0, -10.0, -5.0, 5.0, 10.0)
GRID_TS = (0.1, 0.2, 0.3, 0.4, 0.5)


@pytest.fixture
def announce(capsys):
    def _announce(label: str, ok: bool):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'}  {label}")
        assert ok, label

    return _announce


def rel_close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def test_criterion_01_radius_reference_values(announce):
    ok = (
        abs(KINK.convergence_radius(5.0) - 0.9528972974) < 1e-9
        and abs(KINK.convergence_radius(0.0) - 0.2855993321) < 1e-9
    )
    announce("1. convergence radius at x=5 and x=0 matches reference to 1e-9", ok)


def test_criterion_02_grid_dodges_divergence(announce):
    radii = [KINK.convergence_radius(x) for x in GRID_XS]
    ok = min(radii) == KINK.convergence_radius(5.0) and min(radii) > 0.5
    announce("2. tabulated x-grid keeps every t below the radius (min R at |x|=5 > 0.5)", ok)


def test_criterion_03_independent_routes_agree(announce, riccati15, transport15, coupled20):
    ok = True
    for fx, sol in ((FIXTURES["riccati"], riccati15), (FIXTURES["transport"], transport15)):
        for series, wave in zip(sol.series, fx.waves):
            for x in (0.0, 0.5, 1.0):
                oracle = wave.taylor(x, 15)
                for j in range(16):
                    ok = ok and rel_close(series.coeffs[j](x), oracle[j], 1e-10)
    for series, wave in zip(coupled20.series, FIXTURES["coupled"].waves):
        ok = ok and abs(series.eval(1.0, 0.1) - wave(1.0, 0.1)) < 1e-10
    announce("3. recurrence matches the closed-form expansion (rel 1e-10; eval abs 1e-10)", ok)


def test_criterion_04_residual_vanishes(announce):
    worst = 0.0
    for fx in FIXTURES.values():
        for order in (5, 10, 20):
            sol = solve(fx.system, fx.initial, order)
            worst = max(worst, residual(fx.system, sol))
    announce(f"4. recurrence residual <= 1e-12 at orders 5/10/20 (worst {worst:.2e})", worst <= 1e-12)


def test_criterion_05_truncation_helps_only_inside_radius(announce):
    coeffs = KINK.taylor(0.0, 15)

    def errs(t):
        exact = KINK(0.0, t)
        return abs(partial_sum(coeffs[:6], t) - exact), abs(partial_sum(coeffs, t) - exact)

    e5_out, e15_out = errs(0.5)
    e5_in, e15_in = errs(0.2)
    ok = e15_out >= e5_out and e15_in < e5_in
    announce("5. at x=0: T15 no better than T5 at t=0.5, strictly better at t=0.2", ok)


def test_criterion_06_error_monotone_in_t(announce):
    table = error_table("riccati", (5,), xs=GRID_XS, ts=GRID_TS)
    ok = True
    for x in GRID_XS:
        errs = [row[6] for row in table.rows if row[1] == x]
        ok = ok and all(a <= b for a, b in zip(errs, errs[1:]))
    announce("6. order-5 error is nondecreasing in t at each tabulated x", ok)


def test_criterion_07_rational_acceleration(announce):
    coeffs = KINK.taylor(0.0, 15)
    ap = pade_fit(coeffs, 7, 8)
    ok = abs(ap(0.5) - KINK(0.0, 0.5)) < 1e-4
    for t in (0.3, 0.4, 0.5):
        exact = KINK(0.0, t)
        ok = ok and abs(ap(t) - exact) < abs(partial_sum(coeffs, t) - exact)
    announce("7. [7/8] rational form is 1e-4 accurate at t=0.5 and beats T15 past the radius", ok)


def test_criterion_08_pole_tracks_singularity(announce):
    ap = pade_fit(KINK.taylor(0.0, 15), 7, 8)
    nearest = abs(ap.poles()[0])
    ok = abs(nearest - math.pi / 11) < 1e-3
    announce(f"8. nearest [7/8] pole modulus within 1e-3 of pi/11 (off by {abs(nearest - math.pi / 11):.1e})", ok)


def test_criterion_09_empirical_radius(announce):
    estimate = empirical_radius(KINK.taylor(0.0, 30))
    true = math.pi / 11
    ok = abs(estimate - true) / true < 0.02
    announce(f"9. ratio-method radius from 30 coefficients within 2% (off by {abs(estimate - true) / true:.2%})", ok)


def test_criterion_10_cli_determinism(announce, tmp_path):
    cli = [sys.executable, "-m", "taylorpde.cli"]
    table_args = ["table", "--fixture", "riccati", "--orders", "2,5",
                  "--x=-15,-10,-5,5,10", "--t", "0.1:0.5:0.1"]
    figure_args = ["figure", "--fixture", "riccati", "--x", "0", "--pade", "7,8"]
    ok = True
    for name, args in (("error_table.csv", table_args), ("divergence.csv", figure_args)):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}.{run}"
            proc = subprocess.run(
                cli + args + ["--out", str(out)], capture_output=True, text=True
            )
            ok = ok and proc.returncode == 0
            outputs.append((out / name).read_bytes())
        ok = ok and outputs[0] == outputs[1]
    announce("10. table and figure runs with identical flags emit identical bytes", ok)
