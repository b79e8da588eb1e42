import inspect
import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taylorpde import (
    FIXTURES,
    ConfigError,
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
        "args",
        [
            dict(fixture="riccati", orders=(5, 15, 25), x=0.0, pade=(7, 8), t_max=0.5, samples=2001),
            dict(fixture="coupled", orders=(12, 3), x=-2.5, pade=None, t_max=3, samples=101),
            dict(fixture="riccati", orders=(40,), x=0.0, pade=(2, 2), t_max=1e300, samples=2),
        ],
        ids=["pade", "coupled", "overflow"],
    )
    def test_matches_per_sample_reference(self, args):
        _assert_same_rows(divergence_figure(**args).rows, _per_sample_figure(**args))


class TestCsv:
    def test_float_formatting_round_trips(self):
        table = Table(("a",), ((0.1 + 0.2,), (1.0 / 3.0,), (-2.5e-17,)))
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
        text = to_csv(Table(("a", "b"), ((1, 2.5),), (("k", "v"),)))
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

    @pytest.mark.parametrize("rows", [((1, 2.5), (1,)), ([1.5, "s", 3],)])
    def test_writer_refuses_ragged_rows(self, rows):
        # to_csv writes only what from_csv reads back, with its message.
        n = len(rows[-1])
        with pytest.raises(ConfigError, match=f"^row has {n} cells but the header has 2$"):
            to_csv(Table(("a", "b"), rows))

    @pytest.mark.parametrize("rows", [(), ((),)])
    def test_writer_refuses_no_columns(self, rows):
        with pytest.raises(ConfigError, match="^a table needs at least one column$"):
            to_csv(Table((), rows))

    def test_missing_header(self):
        with pytest.raises(ConfigError):
            from_csv("")


def _per_cell_csv(table):
    """The writer to_csv replaces, one format_cell call per cell; kept as
    the byte-for-byte reference."""
    lines = [f"# {key}: {value}" for key, value in table.meta]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _assert_same_csv(table):
    """to_csv(table) equals the per-cell writer's text; a mismatch names its
    first differing line (a diff of megabyte strings would take minutes)."""
    got = to_csv(table)
    want = _per_cell_csv(table)
    if got != want:
        pairs = zip_longest(got.split("\n"), want.split("\n"))
        line, (a, b) = next((i, ab) for i, ab in enumerate(pairs) if ab[0] != ab[1])
        pytest.fail(f"line {line}: to_csv wrote {a!r}, per-cell writer {b!r}")


class _TaggedInt(int):
    """An int subclass whose text differs from '%d', so a row holding one
    shows whether it went through format_cell."""

    def __str__(self):
        return f"n{int(self)}"


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
    "str": st.text(st.characters(exclude_characters=","), max_size=8),
    "other": st.one_of(
        st.one_of(st.floats(), _special_floats).map(np.float64),
        st.integers(min_value=-(2**70), max_value=2**70).map(_TaggedInt),
        st.fractions(),
    ),
}


@st.composite
def _mixed_tables(draw):
    """Tables whose rows come from a few shapes (sequences of cell kinds, each
    as wide as the header), so a column holds one exact type or a mix; rows
    are given as tuples or lists."""
    width = draw(st.integers(min_value=1, max_value=6))
    kinds = st.lists(st.sampled_from(sorted(_CELLS)), min_size=width, max_size=width)
    shapes = draw(st.lists(kinds, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        cells = [draw(_CELLS[kind]) for kind in draw(st.sampled_from(shapes))]
        rows.append(tuple(cells) if draw(st.booleans()) else cells)
    return Table(tuple(f"c{i}" for i in range(width)), tuple(rows), (("k", "v"),))


class TestRowTemplates:
    """to_csv formats whole columns, each float once per distinct bit
    pattern; every byte must equal the per-cell writer's."""

    @given(_mixed_tables())
    def test_matches_per_cell_writer(self, table):
        _assert_same_csv(table)

    def test_known_cells(self):
        row = (-0.0, math.nan, -math.inf, 5e-324, 1e300, 10**20, -(2**70), "w", 0.1 + 0.2)
        table = Table(tuple("abcdefghi"), (row, list(row), (0.0, -math.nan, math.inf) + row[3:]))
        line = "-0,nan,-inf,4.9406564584124654e-324,1.0000000000000001e+300,"
        line += "100000000000000000000,-1180591620717411303424,w,0.30000000000000004"
        last = "0,nan,inf" + line[len("-0,nan,-inf"):]
        assert to_csv(table) == f"a,b,c,d,e,f,g,h,i\n{line}\n{line}\n{last}\n"
        _assert_same_csv(table)

    def test_subclass_cells_use_format_cell(self):
        table = Table(("a", "b"), ((1, 2), (1, _TaggedInt(2)), [np.float64(0.5), Fraction(1, 3)]))
        assert to_csv(table) == "a,b\n1,2\n1,n2\n0.5,1/3\n"

    @pytest.mark.parametrize("as_list", [False, True])
    @pytest.mark.parametrize("position", range(4))
    def test_bool_anywhere_rejected(self, position, as_list):
        row = [1.5, 7, "s"]
        row.insert(position, True)
        table = Table(("a", "b", "c", "d"), ((2.5, 3, "t", 4), row if as_list else tuple(row)))
        with pytest.raises(TypeError, match="^boolean cells are not supported$"):
            to_csv(table)

    def test_benchmark_error_table_matches_per_cell_writer(self):
        table = error_table(**BENCHMARK_GRID)
        assert len(table.rows) == 3 * 41 * 40 * 4
        _assert_same_csv(table)

    def test_pade_figure_matches_per_cell_writer(self):
        table = divergence_figure("riccati", (5, 15, 25), pade=(7, 8), samples=2001)
        _assert_same_csv(table)


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
