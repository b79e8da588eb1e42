import inspect
import math

import pytest

from taylorpde import (
    ConfigError,
    Table,
    divergence_figure,
    error_table,
    from_csv,
    render_figure_svg,
    solve,
    to_csv,
)
from taylorpde import report

PAPER_XS = (-15.0, -10.0, -5.0, 5.0, 10.0)
PAPER_TS = (0.1, 0.2, 0.3, 0.4, 0.5)
PAPER_ARGS = dict(fixture="riccati", orders=(2, 5), xs=PAPER_XS, ts=PAPER_TS)
FIGURE_ARGS = dict(fixture="riccati", orders=(5, 15), x=0.0, pade=(7, 8), t_max=0.5, samples=21)


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

    def test_missing_header(self):
        with pytest.raises(ConfigError):
            from_csv("")


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
