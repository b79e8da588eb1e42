import hashlib
import subprocess
import sys

import pytest

from taylorpde import ConfigError, cli
from taylorpde.cli import _parse_trange

CLI = [sys.executable, "-m", "taylorpde.cli"]
# Stands for a system file, written per test, whose equation names an
# undefined field: `u' = w_x`.
UNKNOWN_FIELD_FILE = "<unknown-field.pde>"
# Stands for an output directory under the test's tmp_path, which a
# rejected command must not create.
OUT_DIR = "<out>"
# Stands for a KdV system file, `u' = -6*u*u_x - u_xxx`, written per test.
KDV_FILE = "<kdv.pde>"


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

    @pytest.mark.parametrize(
        ("args", "sha256"),
        [
            (
                ("--fixture", "coupled", "--order", "40"),
                "4011e83d623fbb32e6cd649f8c8281aeaaaa822decc5edcec843bdf4a3b8aa9a",
            ),
            (
                ("--fixture", "coupled", "--order", "60"),
                "1198c8bbd2964ea996eb536ff7174fb737a2a86a9ae16f15d04e2c30d17cdedd",
            ),
            (
                ("--system", KDV_FILE, "--init", "2,0,-2", "--order", "50"),
                "2ba55b554c39b4da6f1d8c68448783950896d3676500097cb1f3a139596e84b1",
            ),
        ],
        ids=["coupled-40", "coupled-60", "kdv-50"],
    )
    def test_print_coeffs_bytes_are_pinned(self, args, sha256, tmp_path, capsys):
        # The coefficients take only + - * and /, which IEEE arithmetic
        # rounds the same everywhere, so these bytes hold on any machine;
        # a change to the evaluator or the kernels must keep them.
        path = tmp_path / "kdv.pde"
        path.write_text("u' = -6*u*u_x - u_xxx\n")
        argv = ["solve", *(str(path) if arg == KDV_FILE else arg for arg in args), "--print-coeffs"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        ("argv", "files"),
        [
            (
                [
                    "table",
                    "--fixture", "coupled",
                    "--orders", "5,10,15,20",
                    "--x=" + ",".join(repr(-10.0 + 0.5 * k) for k in range(41)),
                    "--t", "0.0125:0.5:0.0125",
                ],
                {
                    "error_table.csv":
                        "2b46e40a3fe4a56f01846b97706406693624aee2c0390f4de2872e9e98af865a",
                },
            ),
            (
                [
                    "figure",
                    "--fixture", "riccati",
                    "--orders", "5,15,25",
                    "--pade", "7,8",
                    "--samples", "2001",
                    "--svg",
                ],
                {
                    "divergence.csv":
                        "598e37badc9def6bc5247aaeca2a035e07f1fcc86e07a7c9cfecee22ed037a87",
                    "divergence.svg":
                        "785592d4a964abdaf4d3663e5ed31ed0e57fb88d4838d7786d8a48aceedb27ec",
                },
            ),
        ],
        ids=["table", "figure"],
    )
    def test_report_bytes_are_pinned(self, argv, files, tmp_path, capsys):
        # The divergence-report benchmark's table and figure commands.
        # Unlike the coefficients, these bytes also take math.tanh from the
        # C library and the Pade fit from numpy's LAPACK, so they are pinned
        # for one platform; a change to the report layer must keep them.
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        for name, sha256 in files.items():
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == sha256, name


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

    @pytest.mark.parametrize("text", ["0:1e308:1e-308", "-1e308:1e308:1"])
    def test_range_of_too_many_steps_is_refused(self, text):
        # Each part is finite, but the step count is not.
        message = f"^--t range '{text}' has too many values: \\(stop - start\\) / step overflows$"
        with pytest.raises(ConfigError, match=message):
            _parse_trange(text)

    @pytest.mark.parametrize(
        "text, count",
        [("0:1e12:1e-6", 1_000_000_000_000_000_001), ("0:1:1e-6", 1_000_001)],
    )
    def test_range_of_more_values_than_the_cap_is_refused(self, text, count):
        # The step count is finite, but the values would not fit in memory.
        message = f"^--t range '{text}' has {count} values, more than the 1000000 allowed$"
        with pytest.raises(ConfigError, match=message):
            _parse_trange(text)

    def test_range_at_the_cap_is_built(self):
        ts = _parse_trange("0:0.999999:1e-6")
        assert len(ts) == 1_000_000


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

    def test_bytes_are_pinned(self, capsys):
        # Signed and tiny zeros, a repeated value, ints written as floats
        # and a radius past the float range.
        argv = ["radius", "--x=-15,-10.5,-0.0,0,1e-300,2.5,7,1e308"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "1e+308,inf"
        sha256 = "5e36fc2e7149c21079a2611072db547c7dcdb52fc282a954511e061cb5cf1f08"
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


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

    def test_figure_names_the_orders_a_reduced_fit_used(self, tmp_path):
        # At x = 0 the coefficients support no [7/16]: the fit drops to
        # [5/14], and the metadata says so under the orders asked for.
        out = tmp_path / "fig"
        proc = run(
            "figure", "--fixture", "riccati", "--x", "0", "--pade", "7,16", "--out", str(out)
        )
        assert proc.returncode == 0
        csv_text = (out / "divergence.csv").read_text()
        assert "# pade: 7/16\n# pade_used: 5/14\nt,exact,T5,T15,pade[7/16]\n" in csv_text

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
            ("figure", "--fixture", "riccati", "--x", "0", "--t-max", "0", "--out", OUT_DIR),
            ("table", "--fixture", "riccati", "--orders", "2", "--x", "1", "--t", "oops", "--out", OUT_DIR),
            ("solve", "--fixture", "coupled", "--init", "0,1", "--order", "3"),
            ("solve", "--system", UNKNOWN_FIELD_FILE, "--init", "0,1", "--order", "3"),
            # Non-finite numbers are refused, not written as nan/inf rows.
            ("table", "--fixture", "riccati", "--orders", "2", "--x", "1", "--t", "0:nan:0.1", "--out", OUT_DIR),
            ("table", "--fixture", "riccati", "--orders", "2", "--x", "1", "--t", "0:inf:0.1", "--out", OUT_DIR),
            ("table", "--fixture", "riccati", "--orders", "2", "--x=nan", "--t", "0.1,nan", "--out", OUT_DIR),
            ("table", "--fixture", "riccati", "--orders", "2", "--x", "1", "--t", "0.1,nan", "--out", OUT_DIR),
            ("figure", "--fixture", "riccati", "--t-max", "nan", "--out", OUT_DIR),
            ("figure", "--fixture", "riccati", "--t-max", "inf", "--out", OUT_DIR),
            ("figure", "--fixture", "riccati", "--x", "nan", "--out", OUT_DIR),
            ("radius", "--x=nan,inf"),
            ("solve", "--fixture", "riccati", "--order", "3", "--init", "0,inf"),
            ("solve", "--fixture", "riccati", "--order", "3", "--init", "nan"),
            # Finite parts whose (stop - start) / step overflows.
            ("table", "--fixture", "riccati", "--orders", "2", "--x", "1", "--t", "0:1e308:1e-308", "--out", OUT_DIR),
            # A finite step count of 1e18, which would exhaust memory.
            ("table", "--fixture", "riccati", "--orders", "2", "--x", "1", "--t", "0:1e12:1e-6", "--out", OUT_DIR),
        ],
    )
    def test_config_errors_exit_2(self, args, tmp_path):
        system = tmp_path / "unknown-field.pde"
        system.write_text("u' = w_x\n")
        paths = {UNKNOWN_FIELD_FILE: str(system), OUT_DIR: str(tmp_path / "out")}
        proc = run(*(paths.get(arg, arg) for arg in args))
        assert proc.returncode == 2
        assert proc.stderr != ""
        assert not (tmp_path / "out").exists()
        if UNKNOWN_FIELD_FILE in args:
            assert "line 1, column 6: unknown field 'w'" in proc.stderr

    @pytest.mark.parametrize("samples", ["1000001", "1000000000"])
    def test_samples_past_the_cap_exit_2(self, samples, tmp_path):
        # Refused before any solve: a billion samples would exhaust memory.
        out = tmp_path / "out"
        proc = run("figure", "--fixture", "riccati", "--samples", samples, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"error: --samples {samples} is more than the 1000000 allowed\n"
        assert not (out / "divergence.csv").exists()

    @pytest.mark.parametrize("field", ["nan", "inf"])
    def test_field_that_reads_as_a_number_exits_2(self, field, tmp_path):
        # The field column of --print-coeffs would read back as a float.
        path = tmp_path / "number.pde"
        path.write_text(f"{field}' = {field}_x\n")
        proc = run(
            "solve", "--system", str(path), "--init", "0,1", "--order", "2", "--print-coeffs"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        message = f"column 'field': cell {field!r} would not read back as this string"
        assert proc.stderr == f"error: {message}\n"

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

    @pytest.mark.parametrize(
        "rhs", ["(" * 3000 + "u" + ")" * 3000, "-" * 3000 + "u"], ids=["parentheses", "minuses"]
    )
    def test_nesting_past_the_recursion_limit_exits_2(self, rhs, tmp_path):
        path = tmp_path / "deep.pde"
        path.write_text("u' = " + rhs + "\n")
        proc = run("solve", "--system", str(path), "--init", "0,1", "--order", "3")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: line 1: right-hand side of 'u' is nested too deeply\n"

    def test_a_150_deep_system_solves(self, tmp_path):
        path = tmp_path / "deep.pde"
        path.write_text("u' = " + "(" * 150 + "u*u" + ")" * 150 + "\n")
        proc = run("solve", "--system", str(path), "--init", "0,1", "--order", "3")
        assert proc.returncode == 0
        assert proc.stdout == "fields: u\norder: 3\nresidual: 0\n"

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

    def test_constant_past_float_range_exits_3(self, tmp_path, capsys):
        # A 401-digit literal parses exactly but has no float value.
        big = "1" + "0" * 400
        path = tmp_path / "big.pde"
        path.write_text(f"u' = {big} * u\n")
        assert cli.main(["solve", "--system", str(path), "--init", "0,1", "--order", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: constant {big} is outside the float range\n"

    def test_constant_below_float_range_exits_3(self, tmp_path, capsys):
        # Nonzero, but its float is 0.0: solving on would drop the term.
        tiny = "1/1" + "0" * 400
        path = tmp_path / "tiny.pde"
        path.write_text(f"u' = {tiny} * u + 2/3 * u\n")
        assert cli.main(["solve", "--system", str(path), "--init", "0,1", "--order", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: constant {tiny} is outside the float range\n"
