import subprocess
import sys

import pytest

from taylorpde.cli import _parse_trange

CLI = [sys.executable, "-m", "taylorpde.cli"]
# Stands for a system file, written per test, whose equation names an
# undefined field: `u' = w_x`.
UNKNOWN_FIELD_FILE = "<unknown-field.pde>"


def run(*args, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd
    )


class TestSolve:
    def test_summary(self):
        proc = run("solve", "--fixture", "riccati", "--order", "5")
        assert proc.returncode == 0
        assert proc.stdout == "fields: u\norder: 5\nresidual: 0\n"

    def test_print_coeffs(self):
        proc = run("solve", "--fixture", "riccati", "--order", "2", "--print-coeffs")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "order,field,c0,c1,c2,c3",
            "0,u,0,1,0,0",
            "1,u,-5.5,0,5.5,0",
            "2,u,0,-30.25,0,30.25",
        ]

    def test_system_file_matches_fixture(self, tmp_path):
        path = tmp_path / "riccati.pde"
        path.write_text("u' = -11/2 * (1 - u^2)\n")
        from_file = run(
            "solve", "--system", str(path), "--init", "0,1", "--order", "4", "--print-coeffs"
        )
        from_fixture = run(
            "solve", "--fixture", "riccati", "--order", "4", "--print-coeffs"
        )
        assert from_file.returncode == 0
        assert from_file.stdout == from_fixture.stdout

    def test_init_override_on_fixture(self):
        proc = run(
            "solve", "--fixture", "riccati", "--init", "0.5", "--order", "3", "--print-coeffs"
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].startswith("0,u,0.5")


class TestTimeRange:
    @pytest.mark.parametrize(
        "text, count, last",
        [
            ("0:0.5:0.3", 2, 0.3),
            ("0.1:0.5:0.1", 5, 0.1 + 4 * 0.1),
            ("0.0125:0.5:0.0125", 40, 0.0125 + 39 * 0.0125),
        ],
    )
    def test_range_stops_at_stop(self, text, count, last):
        ts = _parse_trange(text)
        assert len(ts) == count
        assert ts[-1] == last


class TestRadius:
    def test_values(self):
        proc = run("radius", "--x=-5,0,5")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "x,radius",
            "-5,0.95289729746344409",
            "0,0.28559933214452665",
            "5,0.95289729746344409",
        ]


class TestTableAndFigure:
    def test_table_writes_csv(self, tmp_path):
        out = tmp_path / "tab"
        proc = run(
            "table",
            "--fixture", "riccati",
            "--orders", "2,5",
            "--x=-15,-10,-5,5,10",
            "--t", "0.1:0.5:0.1",
            "--out", str(out),
        )
        assert proc.returncode == 0
        text = (out / "error_table.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "# fixture: riccati"
        assert lines[3] == "field,x,t,order,approx,exact,abs_error,radius,t_over_radius"
        assert len(lines) == 4 + 5 * 5 * 2

    def test_table_determinism(self, tmp_path):
        args = (
            "table",
            "--fixture", "coupled",
            "--orders", "2,5",
            "--x=-15,-10,-5,5,10",
            "--t", "0.1:0.5:0.1",
        )
        run(*args, "--out", str(tmp_path / "a"))
        run(*args, "--out", str(tmp_path / "b"))
        first = (tmp_path / "a" / "error_table.csv").read_bytes()
        second = (tmp_path / "b" / "error_table.csv").read_bytes()
        assert first == second

    def test_figure_writes_csv_and_svg(self, tmp_path):
        out = tmp_path / "fig"
        proc = run(
            "figure",
            "--fixture", "riccati",
            "--x", "0",
            "--orders", "5,15",
            "--pade", "7,8",
            "--out", str(out),
            "--svg",
        )
        assert proc.returncode == 0
        csv_text = (out / "divergence.csv").read_text()
        assert "t,exact,T5,T15,pade[7/8]" in csv_text
        assert "# radius: 0.28559933214452665" in csv_text
        svg_text = (out / "divergence.svg").read_text()
        assert svg_text.startswith("<svg ")

    def test_figure_determinism(self, tmp_path):
        args = ("figure", "--fixture", "riccati", "--x", "0", "--pade", "7,8", "--svg")
        run(*args, "--out", str(tmp_path / "a"))
        run(*args, "--out", str(tmp_path / "b"))
        for name in ("divergence.csv", "divergence.svg"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second


class TestExitCodes:
    def test_help(self):
        assert run("--help").returncode == 0

    @pytest.mark.parametrize(
        "args",
        [
            ("solve", "--fixture", "bogus", "--order", "3"),
            ("solve", "--fixture", "riccati", "--order", "0"),
            ("solve", "--order", "3"),
            ("solve", "--system", "/nonexistent/x.pde", "--init", "0,1", "--order", "3"),
            ("figure", "--fixture", "riccati", "--x", "0", "--t-max", "0", "--out", "/tmp/zz"),
            ("table", "--fixture", "riccati", "--orders", "2", "--x", "1", "--t", "oops", "--out", "/tmp/zz"),
            ("solve", "--fixture", "coupled", "--init", "0,1", "--order", "3"),
            ("solve", "--system", UNKNOWN_FIELD_FILE, "--init", "0,1", "--order", "3"),
        ],
    )
    def test_config_errors_exit_2(self, args, tmp_path):
        system = tmp_path / "unknown-field.pde"
        system.write_text("u' = w_x\n")
        proc = run(*(str(system) if arg == UNKNOWN_FIELD_FILE else arg for arg in args))
        assert proc.returncode == 2
        assert proc.stderr != ""
        if UNKNOWN_FIELD_FILE in args:
            assert "line 1, column 6: unknown field 'w'" in proc.stderr

    def test_missing_init_with_system_file(self, tmp_path):
        path = tmp_path / "ok.pde"
        path.write_text("u' = u_x\n")
        proc = run("solve", "--system", str(path), "--order", "3")
        assert proc.returncode == 2
        assert "--init" in proc.stderr

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.pde"
        path.write_text("u' = $\n")
        proc = run("solve", "--system", str(path), "--init", "0,1", "--order", "3")
        assert proc.returncode == 2
        assert "line 1" in proc.stderr

    def test_numerical_failure_exits_3(self, tmp_path):
        # [0/2] at x = 0 has a leading zero coefficient column, so the
        # denominator system is singular.
        proc = run(
            "figure",
            "--fixture", "riccati",
            "--x", "0",
            "--pade", "0,2",
            "--out", str(tmp_path / "f"),
        )
        assert proc.returncode == 3
        assert "degenerate" in proc.stderr

    def test_non_finite_row_exits_3(self, tmp_path):
        path = tmp_path / "kdv.pde"
        path.write_text("u' = -6*u*u_x - u_xxx\n")
        proc = run("solve", "--system", str(path), "--init", "2,0,-2", "--order", "80")
        assert proc.returncode == 3
        assert "order 78 of field u is not finite" in proc.stderr
