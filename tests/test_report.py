import inspect
import math
import re
import struct
from fractions import Fraction
from itertools import groupby, zip_longest

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taylorpde import (
    FIXTURES,
    ConfigError,
    PadeApproximant,
    PoleEvaluationError,
    Table,
    divergence_figure,
    error_table,
    from_csv,
    pade_fit,
    partial_sum,
    render_figure_svg,
    solve,
    to_csv,
)
from taylorpde import report
from taylorpde.report import format_cell

PAPER_XS = (-15.0, -10.0, -5.0, 5.0, 10.0)
PAPER_TS = (0.1, 0.2, 0.3, 0.4, 0.5)
PAPER_ARGS = dict(fixture="riccati", orders=(2, 5), xs=PAPER_XS, ts=PAPER_TS)
FIGURE_ARGS = dict(fixture="riccati", orders=(5, 15), x=0.0, pade=(7, 8), t_max=0.5, samples=21)
# The figure of the benchmark's `figure` command.
BENCHMARK_FIGURE = dict(fixture="riccati", orders=(5, 15, 25), pade=(7, 8), samples=2001)


BENCHMARK_GRID = dict(
    fixture="coupled",
    orders=(5, 10, 15, 20),
    xs=tuple(-10.0 + 0.5 * k for k in range(41)),
    ts=tuple(0.0125 * k for k in range(1, 41)),
)


def _per_cell_error_table(fixture, orders, xs, ts):
    """The rows of error_table, one partial_sum per cell in a triple loop;
    kept as the bitwise reference for its whole-grid Horner passes."""
    fx = FIXTURES[fixture]
    orders = sorted(orders)
    solution = solve(fx.system, fx.initial, orders[-1])
    rows = []
    for name, series, wave in zip(fx.system.fields, solution.series, fx.waves):
        for x in xs:
            radius = wave.convergence_radius(x)
            coeffs = [p(x) for p in series.coeffs]
            for t in ts:
                exact = wave(x, t)
                for n in orders:
                    approx = partial_sum(coeffs[: n + 1], t)
                    rows.append(
                        (name, x, t, n, approx, exact, abs(approx - exact), radius, t / radius)
                    )
    return rows


def _per_sample_figure(fixture, orders, x, pade, t_max, samples):
    """The rows of divergence_figure, one sample at a time; kept as the
    bitwise reference for its Horner pass per truncation."""
    fx = FIXTURES[fixture]
    orders = sorted(orders)
    needed = orders[-1] if pade is None else max(orders[-1], sum(pade))
    series = solve(fx.system, fx.initial, needed).series[0]
    wave = fx.waves[0]
    coeffs = [p(x) for p in series.coeffs]
    approximant = None if pade is None else pade_fit(coeffs[: sum(pade) + 1], *pade)
    rows = []
    for i in range(samples):
        t = t_max * i / (samples - 1)
        row = [t, wave(x, t)]
        row.extend(partial_sum(coeffs[: n + 1], t) for n in orders)
        if approximant is not None:
            row.append(approximant(t))
        rows.append(tuple(row))
    return rows


def _assert_same_rows(got, want):
    """Rows equal by repr, so -0.0 differs from 0.0 and an int cell from a
    float; a mismatch names its first differing row."""
    got, want = list(map(repr, got)), list(map(repr, want))
    if got != want:
        pairs = zip_longest(got, want)
        i, (a, b) = next((i, ab) for i, ab in enumerate(pairs) if ab[0] != ab[1])
        pytest.fail(f"row {i}: got {a}, reference {b}")


def paper_table_with(**overrides):
    return error_table(**{**PAPER_ARGS, **overrides})


@pytest.fixture(scope="module")
def paper_table():
    return error_table(**PAPER_ARGS)


@pytest.fixture(scope="module")
def figure_table():
    return divergence_figure("riccati", (5, 15), pade=(7, 8))


@pytest.fixture(scope="module")
def benchmark_figure():
    return divergence_figure(**BENCHMARK_FIGURE)


@pytest.fixture(scope="module")
def figure_svg(figure_table):
    return render_figure_svg(figure_table)


class TestConfigValidation:
    def test_valid(self):
        assert error_table(**PAPER_ARGS).rows
        assert divergence_figure(**FIGURE_ARGS).rows

    @pytest.mark.parametrize(
        "overrides",
        [
            {"fixture": "nope"},
            {"orders": ()},
            {"orders": (0, 5)},
            {"orders": (5, 5)},
            {"pade": (7, 0)},
            {"pade": (-1, 8)},
            {"t_max": 0.0},
            {"samples": 1},
            {"ts": (0.1, -0.2)},
            # Non-finite numbers are refused, not returned as nan/inf rows.
            {"xs": (1.0, math.nan)},
            {"ts": (0.1, math.inf)},
            {"x": math.nan},
            {"t_max": math.inf},
            {"t_max": math.nan},
        ],
    )
    def test_rejected(self, overrides):
        # Each bad value goes to every report function that takes it.
        called = 0
        for func, base in ((error_table, PAPER_ARGS), (divergence_figure, FIGURE_ARGS)):
            if overrides.keys() <= inspect.signature(func).parameters.keys():
                called += 1
                with pytest.raises(ConfigError):
                    func(**{**base, **overrides})
        assert called

    def test_error_table_needs_grids(self):
        with pytest.raises(ConfigError):
            paper_table_with(xs=())
        with pytest.raises(ConfigError):
            paper_table_with(ts=())


class TestErrorTable:
    def test_columns(self, paper_table):
        assert paper_table.columns == (
            "field",
            "x",
            "t",
            "order",
            "approx",
            "exact",
            "abs_error",
            "radius",
            "t_over_radius",
        )

    def test_row_count_and_sort_order(self, paper_table):
        assert len(paper_table.rows) == 1 * len(PAPER_XS) * len(PAPER_TS) * 2
        keys = [(row[0], row[1], row[2], row[3]) for row in paper_table.rows]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2], k[3]))

    def test_internal_consistency(self, paper_table):
        for row in paper_table.rows:
            assert row[6] == abs(row[4] - row[5])
            assert row[8] == row[2] / row[7]

    def test_paper_grid_dodges_divergence(self, paper_table):
        assert all(row[8] < 1.0 for row in paper_table.rows)
        min_radius = min(row[7] for row in paper_table.rows)
        assert min_radius == pytest.approx(0.9528972974, abs=1e-9)
        assert min_radius > 0.5

    def test_error_nondecreasing_in_t_at_x5(self, paper_table):
        errs = [row[6] for row in paper_table.rows if row[1] == 5.0 and row[3] == 5]
        assert len(errs) == len(PAPER_TS)
        assert all(a <= b for a, b in zip(errs, errs[1:]))

    def test_saturation_regime_error_tiny(self, paper_table):
        row = next(r for r in paper_table.rows if r[1] == 10.0 and r[2] == 0.1 and r[3] == 5)
        assert row[6] < 1e-8

    def test_row_order_follows_the_grids(self):
        # Fields in system order, x and t as given (not sorted), orders sorted.
        table = error_table("coupled", (7, 3), xs=(5.0, -5.0), ts=(0.2, 0.1))
        keys = [row[:4] for row in table.rows]
        assert keys == [
            (f, x, t, n)
            for f in ("u", "v", "z")
            for x in (5.0, -5.0)
            for t in (0.2, 0.1)
            for n in (3, 7)
        ]

    @pytest.mark.parametrize(
        "args",
        [
            BENCHMARK_GRID,
            # Signed and int zeros, int t, t past the radius, a t whose
            # Horner pass overflows to inf and one whose ratio t/R does.
            dict(
                fixture="coupled",
                orders=(20, 3, 9),
                xs=(2.5, 0, -3.0, 1e308),
                ts=(-0.0, 0, 0.0, 0.125, 1, 2, 1e200, 1e308),
            ),
            dict(fixture="riccati", orders=(1,), xs=(-0.0,), ts=(3,)),
        ],
        ids=["benchmark", "edge", "riccati"],
    )
    def test_matches_per_cell_reference(self, args):
        _assert_same_rows(error_table(**args).rows, _per_cell_error_table(**args))

    def test_float_columns_are_read_only_arrays(self, paper_table):
        for column in paper_table.cells[4:]:
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_multi_field_fixture_emits_all_fields(self):
        table = error_table("coupled", (3,), xs=(5.0,), ts=(0.1,))
        assert [row[0] for row in table.rows] == ["u", "v", "z"]

    def test_metadata(self, paper_table):
        meta = dict(paper_table.meta)
        assert meta["fixture"] == "riccati"
        assert meta["orders"] == "2 5"

    def test_one_solve_gives_each_order_bitwise(self, coupled, monkeypatch):
        solves = []

        def counting_solve(*args):
            solves.append(args[-1])
            return solve(*args)

        monkeypatch.setattr(report, "solve", counting_solve)
        table = error_table("coupled", (7, 3), xs=(-5.0, 0.0, 2.5), ts=(0.05, 0.3))
        assert solves == [7]
        by_order = {n: solve(coupled.system, coupled.initial, n) for n in (3, 7)}
        fields = coupled.system.fields
        assert len(table.rows) == 3 * 3 * 2 * 2
        for name, x, t, n, approx, *_ in table.rows:
            expected = by_order[n].series[fields.index(name)].eval(x, t)
            assert approx == expected


class TestDivergenceFigure:
    def test_columns(self, figure_table):
        assert figure_table.columns == ("t", "exact", "T5", "T15", "pade[7/8]")

    def test_sampling(self, figure_table):
        assert len(figure_table.rows) == 201
        assert figure_table.rows[0][0] == 0.0
        assert figure_table.rows[-1][0] == 0.5

    def test_accuracy_well_inside_radius(self, figure_table):
        row = figure_table.rows[20]
        assert row[0] == 0.05
        assert abs(row[2] - row[1]) < 1e-3
        assert abs(row[3] - row[1]) < 1e-9

    def test_higher_order_worse_past_radius(self, figure_table):
        row = figure_table.rows[-1]
        assert abs(row[3] - row[1]) >= abs(row[2] - row[1])

    def test_pade_tracks_past_radius(self, figure_table):
        row = figure_table.rows[-1]
        assert abs(row[4] - row[1]) < 1e-4

    def test_metadata_radius(self, figure_table):
        meta = dict(figure_table.meta)
        assert float(meta["radius"]) == pytest.approx(0.2855993321, abs=1e-9)
        assert meta["orders"] == "5 15"
        assert meta["pade"] == "7/8"
        assert meta["x"] == "0"

    def test_without_pade_column(self):
        table = divergence_figure("riccati", (5,), samples=11)
        assert table.columns == ("t", "exact", "T5")
        assert "pade" not in dict(table.meta)

    def test_off_center_slice(self):
        table = divergence_figure("riccati", (5,), x=2.0, samples=11)
        meta = dict(table.meta)
        assert float(meta["x"]) == 2.0
        assert float(meta["radius"]) == pytest.approx(
            math.sqrt(4.0 + (math.pi / 2) ** 2) / 5.5, rel=1e-12
        )

    def test_one_solve_gives_each_order_bitwise(self, coupled):
        table = divergence_figure("coupled", (7, 3), x=2.5, samples=11)
        assert table.columns == ("t", "exact", "T3", "T7")
        for ci, n in ((2, 3), (3, 7)):
            series = solve(coupled.system, coupled.initial, n).series[0]
            for row in table.rows:
                assert row[ci] == series.eval(2.5, row[0])

    @pytest.mark.parametrize(
        ("den", "t_max", "samples"), [((1.0, -2.0), 0.5, 2), ((1.0, -3.0, 2.0), 1.0, 3)]
    )
    def test_a_pade_pole_raises_the_scalar_error(self, monkeypatch, den, t_max, samples):
        # 1 - 2t vanishes at the last sample, 0.5; (1 - t)(1 - 2t) at the
        # last two, 0.5 and 1.  The first raises, with the scalar call's text.
        approximant = PadeApproximant((1.0,), den, 1.0)
        monkeypatch.setattr(report, "pade_fit", lambda *args: approximant)
        pade = (0, len(den) - 1)
        message = "denominator vanishes at t = 0.5"
        for call in (
            lambda: approximant(0.5),
            lambda: divergence_figure("riccati", (5,), pade=pade, t_max=t_max, samples=samples),
        ):
            with pytest.raises(PoleEvaluationError, match=f"^{re.escape(message)}$"):
                call()

    def test_an_overflowing_pade_column_is_nan_as_in_the_scalar_call(self, monkeypatch):
        # t^2 / (1 + t^2) past t = 1e155 is inf / inf: nan, with no warning.
        approximant = PadeApproximant((0.0, 0.0, 1.0), (1.0, 0.0, 1.0), 1.0)
        monkeypatch.setattr(report, "pade_fit", lambda *args: approximant)
        table = divergence_figure("riccati", (5,), pade=(2, 2), t_max=1e300, samples=3)
        assert list(map(repr, table.cells[-1])) == ["0.0", "nan", "nan"]
        assert list(map(repr, map(approximant, table.cells[0]))) == ["0.0", "nan", "nan"]

    @pytest.mark.parametrize(
        "args",
        [
            dict(BENCHMARK_FIGURE, x=0.0, t_max=0.5),
            dict(fixture="coupled", orders=(12, 3), x=-2.5, pade=None, t_max=3, samples=101),
            dict(fixture="riccati", orders=(40,), x=0.0, pade=(2, 2), t_max=1e300, samples=2),
        ],
        ids=["pade", "coupled", "overflow"],
    )
    def test_matches_per_sample_reference(self, args):
        _assert_same_rows(divergence_figure(**args).rows, _per_sample_figure(**args))


class TestCsv:
    def test_float_formatting_round_trips(self):
        table = Table(("a",), ((0.1 + 0.2, 1.0 / 3.0, -2.5e-17),))
        text = to_csv(table)
        assert from_csv(text) == table

    def test_error_table_round_trip(self):
        table = paper_table_with(xs=(5.0,), ts=(0.1, 0.2))
        assert from_csv(to_csv(table)) == table

    def test_figure_round_trip(self):
        table = divergence_figure(**FIGURE_ARGS)
        assert from_csv(to_csv(table)) == table

    def test_deterministic_output(self):
        a = to_csv(error_table(**PAPER_ARGS))
        b = to_csv(error_table(**PAPER_ARGS))
        assert a == b

    def test_newline_convention(self):
        text = to_csv(Table(("a", "b"), ((1,), (2.5,)), (("k", "v"),)))
        assert text == "# k: v\na,b\n1,2.5\n"

    def test_bool_cell_rejected(self):
        with pytest.raises(TypeError):
            to_csv(Table(("a",), ((True,),)))

    def test_malformed_metadata(self):
        with pytest.raises(ConfigError):
            from_csv("# missing separator\na\n1\n")

    def test_ragged_row(self):
        with pytest.raises(ConfigError):
            from_csv("a,b\n1\n")

    @pytest.mark.parametrize(
        ("cells", "lengths"),
        [
            (((1, 2.5), (1,)), [2, 1]),
            (([1.5, "s", 3],), [3]),
            ((np.array([1.5, 2.5]), (7, 8), ("x",)), [2, 2, 1]),
        ],
    )
    def test_writer_refuses_ragged_rows(self, cells, lengths):
        # Columns of unequal length, or fewer or more columns than names,
        # would be ragged rows, which from_csv refuses to read back.
        message = f"a header of 2 names over columns of lengths {lengths}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            to_csv(Table(("a", "b"), cells))

    @pytest.mark.parametrize("cells", [(), ((),)])
    def test_writer_refuses_no_columns(self, cells):
        with pytest.raises(ConfigError, match="^a table needs at least one column$"):
            to_csv(Table((), cells))

    def test_missing_header(self):
        with pytest.raises(ConfigError):
            from_csv("")

    @pytest.mark.parametrize(
        ("names", "cells", "bad"),
        [
            (("a", "b"), ((1,), ("x,y",)), ("b", "x,y")),
            (("a", "b"), ((1,), ("x\ny",)), ("b", "x\ny")),
            (("a", "b"), ((1,), ("x\rz",)), ("b", "x\rz")),
            (("a", "b"), ((1,), ("x\u2028y",)), ("b", "x\u2028y")),
            (("a", "b"), ((1, 2), ("w", "1")), ("b", "1")),
            (("a", "b"), ((1,), ("nan",)), ("b", "nan")),
            (("a", "b"), ((1,), ("-inf",)), ("b", "-inf")),
            (("a", "b"), ((1,), (" 7",)), ("b", " 7")),
            (("a", "b"), ((1,), ("1_000",)), ("b", "1_000")),
            (("a", "b"), ((1, 2), [2.5, "1e3"]), ("b", "1e3")),
            (("a", "b"), (("#c",), (1,)), ("a", "#c")),
            (("a",), (("",),), ("a", "")),
            (("a", "b"), ((1, 2), [2.5, "0x1p3"]), None),
            (("a", "b"), (("",), (1,)), None),
            (("a", "b"), ((1,), ("#c",)), None),
        ],
    )
    def test_writer_refuses_cells_it_cannot_read_back(self, names, cells, bad):
        # A string cell must read back as that string: no ',' or line
        # break, no number, no '#' opening a line and no empty line.
        table = Table(names, cells)
        if bad is None:
            assert from_csv(to_csv(table)).rows == table.rows
        else:
            message = f"column {bad[0]!r}: cell {bad[1]!r} would not read back as this string"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                to_csv(table)

    @pytest.mark.parametrize(
        ("names", "bad"),
        [(("a", "b,c"), "'b,c'"), (("a\n", "b"), "'a\\n'"), (("#a", "b"), "'#a'"), (("",), "''")],
    )
    def test_writer_refuses_names_it_cannot_read_back(self, names, bad):
        table = Table(names, tuple((1,) for _ in names))
        message = f"column name {bad} would not read back"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            to_csv(table)

    @pytest.mark.parametrize(
        "pair",
        [
            ("n", "a\nb"),
            ("n\rm", "b"),
            ("k", "x\u2028y"),
            ("k: x", "v"),
            ("k", "v "),
            (" k", "v"),
            ("k ", "v"),
            ("k", "\tv"),
            ("k", ""),
            ("n", 5),
        ],
    )
    def test_writer_refuses_metadata_it_cannot_read_back(self, pair):
        # A line break would end the '# key: value' line early, from_csv
        # splits at the first ': ' and strips the line, and an empty value
        # leaves no ': ' after stripping.
        message = f"metadata pair {pair!r} would not read back"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            to_csv(Table(("a",), ((1,),), (("ok", "1"), pair)))

    @pytest.mark.parametrize("pair", [("k", "a: b"), ("k:", "v"), ("", "v"), ("k", "#v x")])
    def test_metadata_that_reads_back_is_written(self, pair):
        table = Table(("a",), ((1,),), (pair,))
        assert from_csv(to_csv(table)) == table

    def test_each_distinct_string_is_checked_once(self, monkeypatch):
        parsed, parse = [], report._parse_cell

        def counting_parse(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(report, "_parse_cell", counting_parse)
        to_csv(error_table("coupled", (3, 5), xs=(-1.0, 0.0, 2.0), ts=(0.1, 0.2)))
        assert parsed == ["u", "v", "z"]

    def test_minus_zero_reads_back_as_a_float(self):
        table = from_csv(to_csv(Table(("a", "b"), ((-0.0, 0.0, 0), (-0, 1, -1)))))
        assert list(map(repr, table.cells[0])) == ["-0.0", "0", "0"]
        assert list(map(repr, table.cells[1])) == ["0", "1", "-1"]


class TestTable:
    def test_rows_are_derived_from_the_columns(self):
        table = Table(("a", "b"), (np.array([0.5, -0.0]), ("x", "y")))
        assert table.rows == ((0.5, "x"), (-0.0, "y"))
        assert all(type(row[0]) is float for row in table.rows)

    def test_equality_reads_cells_not_containers(self):
        a = Table(("a",), (np.array([0.5, 1.5]),), (("k", "v"),))
        assert a == Table(("a",), ([0.5, 1.5],), (("k", "v"),))
        assert a != Table(("a",), ((0.5, 2.5),), (("k", "v"),))
        assert a != Table(("b",), ((0.5, 1.5),), (("k", "v"),))
        assert a != Table(("a",), ((0.5, 1.5),))
        with pytest.raises(TypeError):
            hash(a)
        nan = Table(("a",), (np.array([math.nan]),))
        assert nan == nan
        assert nan != Table(("a",), (np.array([math.nan]),))


def _per_cell_csv(table):
    """The writer to_csv replaces, one format_cell call per cell; kept as
    the byte-for-byte reference."""
    lines = [f"# {key}: {value}" for key, value in table.meta]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _assert_same_text(got, want, writer, reference):
    """`got` equals `want`; a mismatch names its first differing line (a
    diff of megabyte strings would take minutes)."""
    if got != want:
        pairs = zip_longest(got.split("\n"), want.split("\n"))
        line, (a, b) = next((i, ab) for i, ab in enumerate(pairs) if ab[0] != ab[1])
        pytest.fail(f"line {line}: {writer} wrote {a!r}, {reference} {b!r}")


def _assert_same_csv(table):
    """to_csv(table) equals the per-cell writer's text."""
    _assert_same_text(to_csv(table), _per_cell_csv(table), "to_csv", "per-cell writer")


class _TaggedInt(int):
    """An int subclass whose text differs from '%d', so a row holding one
    shows whether it went through format_cell."""

    def __str__(self):
        return f"n{int(self)}"


def _reads_as_text(text):
    """Whether neither int() nor float() takes `text`, so from_csv reads
    it back as a string."""
    for parse in (int, float):
        try:
            parse(text)
        except ValueError:
            continue
        return False
    return True


# Characters that neither split a CSV line into cells nor end it:
# str.splitlines splits at every Cc, Zl and Zp separator.
_IN_A_CELL = st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters=",")
# Strings that from_csv reads back as themselves anywhere in a table: no
# leading '#', not empty and no number.
_SAFE_TEXT = st.text(_IN_A_CELL, min_size=1, max_size=8).filter(
    lambda text: text[0] != "#" and _reads_as_text(text)
)

_special_floats = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, 1e20]
)
_CELLS = {
    "float": st.one_of(st.floats(), _special_floats),
    "int": st.one_of(
        st.integers(),
        st.integers(min_value=2**64, max_value=2**200),
        st.integers(min_value=-(2**200), max_value=-1),
    ),
    "str": _SAFE_TEXT,
    "other": st.one_of(
        st.one_of(st.floats(), _special_floats).map(np.float64),
        st.integers(min_value=-(2**70), max_value=2**70).map(_TaggedInt),
        st.fractions(),
    ),
}


@st.composite
def _mixed_tables(draw):
    """Tables of 1-6 columns of 0-10 cells.  Each column draws its cells
    from one or two kinds, so it holds one exact type or a mix; it is given
    as a tuple or a list, and a column of floats may be a float64 array."""
    width = draw(st.integers(min_value=1, max_value=6))
    length = draw(st.integers(min_value=0, max_value=10))
    cells = []
    for _ in range(width):
        kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=2))
        column = [draw(_CELLS[draw(st.sampled_from(kinds))]) for _ in range(length)]
        if set(map(type, column)) <= {float} and draw(st.booleans()):
            column = np.array(column, dtype=float)
        cells.append(tuple(column) if draw(st.booleans()) else column)
    return Table(tuple(f"c{i}" for i in range(width)), tuple(cells), (("k", "v"),))


def _same_cell(got, want):
    """A float read back as an int or a float with its own bits; an int or
    a string as itself."""
    if isinstance(want, float):
        return struct.pack("<d", float(got)) == struct.pack("<d", want)
    return type(got) is type(want) and got == want


@st.composite
def _readable_tables(draw):
    """Tables of 1-5 columns of 0-8 cells mixing ints, finite floats (with
    -0.0) and safe strings, under names that from_csv reads back."""
    width = draw(st.integers(min_value=1, max_value=5))
    length = draw(st.integers(min_value=0, max_value=8))
    name = st.text(_IN_A_CELL, min_size=1, max_size=6).filter(lambda text: text[0] != "#")
    cell = st.one_of(
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.just(-0.0),
        _SAFE_TEXT,
    )
    names = tuple(draw(st.lists(name, min_size=width, max_size=width)))
    cells = tuple(tuple(draw(st.lists(cell, min_size=length, max_size=length))) for _ in names)
    return Table(names, cells, (("k", "v"),))


class TestRoundTrip:
    @given(_readable_tables())
    def test_round_trip_gives_back_every_cell(self, table):
        back = from_csv(to_csv(table))
        assert (back.columns, back.meta) == (table.columns, table.meta)
        assert [len(column) for column in back.cells] == [len(column) for column in table.cells]
        for got, want in zip(back.rows, table.rows):
            for g, w in zip(got, want):
                assert _same_cell(g, w), (g, w)

    @pytest.mark.xfail(
        strict=True,
        reason="cells read back as ((1, 0.5, 10000000000000000),): integral floats become ints",
    )
    def test_round_trip_keeps_every_float_a_float(self):
        # A claims column for an audit must read back as the floats it held.
        back = from_csv(to_csv(Table(("a",), ((1.0, 0.5, 1e16),))))
        assert [type(cell) for cell in back.cells[0]] == [float, float, float]


class TestRowTemplates:
    """to_csv formats whole columns, each float once per distinct bit
    pattern; every byte must equal the per-cell writer's."""

    @given(_mixed_tables())
    def test_matches_per_cell_writer(self, table):
        _assert_same_csv(table)

    def test_known_cells(self):
        cells = (
            (-0.0, -0.0, 0.0),
            [math.nan, math.nan, -math.nan],
            np.array([-math.inf, -math.inf, math.inf]),
            np.array([5e-324] * 3),
            (1e300,) * 3,
            (10**20,) * 3,
            [-(2**70)] * 3,
            ("w",) * 3,
            (0.1 + 0.2,) * 3,
        )
        table = Table(tuple("abcdefghi"), cells)
        line = "-0,nan,-inf,4.9406564584124654e-324,1.0000000000000001e+300,"
        line += "100000000000000000000,-1180591620717411303424,w,0.30000000000000004"
        last = "0,nan,inf" + line[len("-0,nan,-inf"):]
        assert to_csv(table) == f"a,b,c,d,e,f,g,h,i\n{line}\n{line}\n{last}\n"
        _assert_same_csv(table)

    def test_subclass_cells_use_format_cell(self):
        table = Table(("a", "b"), ((1, 1, np.float64(0.5)), [2, _TaggedInt(2), Fraction(1, 3)]))
        assert to_csv(table) == "a,b\n1,2\n1,n2\n0.5,1/3\n"

    @pytest.mark.parametrize("as_list", [False, True])
    @pytest.mark.parametrize("position", range(4))
    def test_bool_anywhere_rejected(self, position, as_list):
        # A column of floats, of ints, of strings and a mix, one of them
        # with a boolean cell.
        columns = [[2.5, 1.5], [3, 7], ["t", "s"], [Fraction(1, 2), 4]]
        columns[position][1] = True
        cells = [column if as_list else tuple(column) for column in columns]
        table = Table(("a", "b", "c", "d"), tuple(cells))
        with pytest.raises(TypeError, match="^boolean cells are not supported$"):
            to_csv(table)

    def test_benchmark_error_table_matches_per_cell_writer(self):
        table = error_table(**BENCHMARK_GRID)
        assert len(table.rows) == 3 * 41 * 40 * 4
        _assert_same_csv(table)

    def test_pade_figure_matches_per_cell_writer(self, benchmark_figure):
        _assert_same_csv(benchmark_figure)


def _per_point_svg(table):
    """The renderer render_figure_svg replaces, scalar coordinates per point
    and in-band runs from groupby; kept as the byte-for-byte reference."""
    meta = dict(table.meta)
    width, height = 720.0, 480.0
    left, right, top, bottom = 64.0, 16.0, 16.0, 48.0

    ts, exact = table.cells[0], table.cells[1]
    t_lo, t_hi = ts[0], ts[-1]
    finite = [v for v in exact if math.isfinite(v)]
    y_lo, y_hi = min(finite), max(finite)
    pad = 0.6 * (y_hi - y_lo) if y_hi > y_lo else 1.0
    y_lo -= pad
    y_hi += pad

    def sx(t):
        return left + (t - t_lo) / (t_hi - t_lo) * (width - left - right)

    def sy(v):
        return top + (y_hi - v) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]

    def line(x1, y1, x2, y2, stroke="black", style=' stroke-width="1"'):
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}"{style}/>'
        )

    axis_y = height - bottom
    line(left, axis_y, width - right, axis_y)
    line(left, top, left, axis_y)
    for i in range(6):
        t = t_lo + (t_hi - t_lo) * i / 5
        px = sx(t)
        line(px, axis_y, px, axis_y + 5)
        parts.append(
            f'<text x="{px:.2f}" y="{axis_y + 20:.2f}" font-size="12" '
            f'text-anchor="middle">{t:.2f}</text>'
        )
    for i in range(5):
        v = y_lo + (y_hi - y_lo) * i / 4
        py = sy(v)
        line(left - 5, py, left, py)
        parts.append(
            f'<text x="{left - 8:.2f}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">{v:.2f}</text>'
        )
    parts.append(
        f'<text x="{(left + width - right) / 2:.2f}" y="{height - 10:.2f}" '
        f'font-size="13" text-anchor="middle">t</text>'
    )

    radius_text = meta.get("radius")
    if radius_text is not None:
        radius = float(radius_text)
        if t_lo <= radius <= t_hi:
            px = sx(radius)
            line(px, top, px, axis_y, "#888888", ' stroke-width="1" stroke-dasharray="3 3"')
            parts.append(
                f'<text x="{px + 4:.2f}" y="{top + 14:.2f}" font-size="12" '
                f'fill="#555555">R = {radius:.4f}</text>'
            )

    curves = list(table.columns[1:])
    palette, dashes = report._PALETTE, report._DASHES
    styles = [("#000000", "")] + [
        (palette[i % len(palette)], f' stroke-dasharray="{dashes[i % len(dashes)]}"')
        for i in range(len(curves) - 1)
    ]
    x_texts = [f"{sx(t):.2f}," for t in ts]
    for values, (stroke, dash_attr) in zip(table.cells[1:], styles):
        for inside, run in groupby(zip(x_texts, values), lambda p: y_lo <= p[1] <= y_hi):
            points = [f"{x_text}{sy(v):.2f}" for x_text, v in run] if inside else ()
            if len(points) > 1:
                parts.append(
                    f'<polyline points="{" ".join(points)}" fill="none" '
                    f'stroke="{stroke}" stroke-width="1.5"{dash_attr}/>'
                )

    lx, ly = left + 12.0, top + 12.0
    box_h = 18.0 * len(curves) + 8.0
    parts.append(
        f'<rect x="{lx - 6:.2f}" y="{ly - 6:.2f}" width="150" '
        f'height="{box_h:.2f}" fill="white" stroke="#cccccc"/>'
    )
    for ci, (name, (stroke, dash_attr)) in enumerate(zip(curves, styles)):
        yy = ly + 18.0 * ci + 6.0
        line(lx, yy, lx + 28, yy, stroke, f' stroke-width="1.5"{dash_attr}')
        parts.append(f'<text x="{lx + 34:.2f}" y="{yy + 4:.2f}" font-size="12">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Curve values that leave the band around a curve in [-2, 2] and come back,
# often for a single point, and that hold nan and both infinities.
_CURVE_VALUES = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-20.0, max_value=20.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def _figure_tables(draw):
    """Figure tables of 2-12 samples over t in [0, t_max]: an exact curve and
    0-3 more curves drawn from _CURVE_VALUES, exact also from [-2, 2] alone,
    with a radius line inside, outside or absent."""
    n = draw(st.integers(min_value=2, max_value=12))
    t_max = draw(st.floats(min_value=0.01, max_value=5.0))
    ts = tuple(t_max * i / (n - 1) for i in range(n))
    exact_values = draw(st.sampled_from([st.floats(min_value=-2.0, max_value=2.0), _CURVE_VALUES]))
    cells = [ts, tuple(draw(st.lists(exact_values, min_size=n, max_size=n)))]
    others = draw(st.integers(min_value=0, max_value=3))
    cells += [tuple(draw(st.lists(_CURVE_VALUES, min_size=n, max_size=n))) for _ in range(others)]
    columns = ("t", "exact") + tuple(f"T{i}" for i in range(others))
    meta = ()
    if draw(st.booleans()):
        meta = (("radius", repr(draw(st.floats(min_value=0.0, max_value=2 * t_max)))),)
    return Table(columns, tuple(cells), meta)


_NO_FINITE = "a figure needs a finite value in its exact column"


class TestSvg:
    def test_document_shape(self, figure_svg):
        assert figure_svg.startswith("<svg ")
        assert figure_svg.endswith("</svg>\n")

    def test_curves_present(self, figure_svg):
        assert figure_svg.count("<polyline") >= 4
        for label in ("exact", "T5", "T15", "pade[7/8]"):
            assert f">{label}</text>" in figure_svg

    def test_radius_marker(self, figure_svg):
        assert "R = 0.2856" in figure_svg

    def test_deterministic(self, figure_svg):
        table = divergence_figure("riccati", (5, 15), pade=(7, 8))
        assert render_figure_svg(table) == figure_svg

    @pytest.mark.parametrize(
        "cells", [((0.5,), (1.0,)), ((0.0, 0.0), (1.0, 2.0)), ((0.0, 1.0, 0.0), (1.0, 2.0, 3.0))]
    )
    def test_refuses_a_t_column_without_a_span(self, cells):
        # The t axis runs from the first t to the last, which must differ.
        message = "a figure needs a t column whose first and last values differ"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            render_figure_svg(Table(("t", "exact"), cells))

    def test_benchmark_figure_matches_per_point_renderer(self, benchmark_figure):
        svg = render_figure_svg(benchmark_figure)
        assert svg.count("<polyline") == 5
        _assert_same_text(svg, _per_point_svg(benchmark_figure), "render", "per-point renderer")

    @given(_figure_tables())
    def test_matches_per_point_renderer(self, table):
        if not any(map(math.isfinite, table.cells[1])):
            with pytest.raises(ConfigError, match=f"^{_NO_FINITE}$"):
                render_figure_svg(table)
            return
        _assert_same_text(
            render_figure_svg(table), _per_point_svg(table), "render", "per-point renderer"
        )

    @pytest.mark.parametrize("first", [True, False], ids=["first", "later"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_a_non_finite_exact_value_leaves_the_band_alone(self, first, bad):
        # The band is that of the finite values, 1 and 2, wherever the bad
        # value sits: the same ticks as without it, and no nan or inf text.
        ts = (0.0, 0.25, 0.5, 0.75, 1.0)
        exact = (bad, 1.0, 1.5, 2.0, 1.5) if first else (1.0, 1.5, bad, 2.0, 1.5)
        svg = render_figure_svg(Table(("t", "exact"), (ts, exact)))
        plain = render_figure_svg(Table(("t", "exact"), (ts, (1.0, 1.5, 1.5, 2.0, 1.5))))
        ticks = re.compile(r'text-anchor="end">([^<]*)<')
        band = ["0.40", "0.95", "1.50", "2.05", "2.60"]
        assert ticks.findall(svg) == ticks.findall(plain) == band
        assert "nan" not in svg and "inf" not in svg
        # The bad sample is left out of the curve: one polyline after it in
        # first place, two around it in the middle.
        assert svg.count("<polyline") == (1 if first else 2)

    @pytest.mark.parametrize("exact", [(math.nan, math.nan), (math.inf, -math.inf)])
    def test_refuses_an_exact_column_without_a_finite_value(self, exact):
        with pytest.raises(ConfigError, match=f"^{_NO_FINITE}$"):
            render_figure_svg(Table(("t", "exact"), ((0.0, 1.0), exact)))
