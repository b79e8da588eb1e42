import math
from fractions import Fraction

import numpy as np
import pytest

from taylorpde import (
    ConfigError,
    ParseError,
    TanhPoly,
    TaylorPdeError,
    TimeSeries,
    eval_rhs,
    parse_system,
    pretty,
    residual,
    solve,
)
from taylorpde.dsl import Add, Const, Deriv, Field, Mul, Neg, Pow, RowEvaluator, Sub
from taylorpde.series import add_rows, sub_rows


def rhs_of(text):
    return parse_system(text).equations[0]


class TestParsing:
    def test_advection_ast(self):
        assert rhs_of("u' = -5.5 * u_x") == Mul(Const(Fraction(-11, 2)), Deriv(0, 1))

    def test_shifted_square_ast(self):
        expected = Add(
            Const(Fraction(-11, 4)),
            Mul(Const(Fraction(11)), Pow(Sub(Field(0), Const(Fraction(1))), 2)),
        )
        assert rhs_of("u' = -11/4 + 11*(u - 1)^2") == expected

    def test_unknown_field(self):
        with pytest.raises(ParseError, match="^line 1, column 6: unknown field 'w'$"):
            parse_system("u' = w_x")

    def test_mul_binds_tighter_than_add(self):
        sys = parse_system("a' = 1\nb' = 1\nc' = a + b * c")
        assert sys.equations[2] == Add(Field(0), Mul(Field(1), Field(2)))

    def test_unary_minus_looser_than_power(self):
        assert rhs_of("u' = -u^2") == Neg(Pow(Field(0), 2))

    def test_decimal_literals_are_exact_rationals(self):
        assert rhs_of("u' = 0.25") == Const(Fraction(1, 4))
        assert rhs_of("u' = 5.5") == Const(Fraction(11, 2))

    def test_negative_literal_folds(self):
        assert rhs_of("u' = -3/4") == Const(Fraction(-3, 4))

    def test_derivative_suffixes(self):
        sys = parse_system("u' = u_x + u_xx + u_xxx")
        assert sys.equations[0] == Add(Add(Deriv(0, 1), Deriv(0, 2)), Deriv(0, 3))

    def test_derivative_operator_form(self):
        assert rhs_of("u' = d_x^4(u)") == Deriv(0, 4)

    def test_operator_form_rejects_subexpressions(self):
        with pytest.raises(
            ParseError,
            match="^line 1, column 14: d_x applies to a single field name, not an expression$",
        ):
            parse_system("u' = d_x^2(u + u)")

    def test_time_derivative_rejected(self):
        message = "^line 1, column 6: time derivatives cannot appear in a right-hand side$"
        with pytest.raises(ParseError, match=message):
            parse_system("u' = u_t")
        with pytest.raises(ParseError, match=message):
            parse_system("u' = u_xt")

    def test_duplicate_equation(self):
        with pytest.raises(
            ParseError, match="^line 2, column 1: field 'u' already has an equation on line 1$"
        ):
            parse_system("u' = 1\nu' = 2")

    def test_fields_ordered_by_appearance(self):
        sys = parse_system("z' = u\nu' = z")
        assert sys.fields == ("z", "u")
        assert sys.equations == (Field(1), Field(0))

    def test_comments_and_blank_lines(self):
        sys = parse_system("# evolution of one field\n\nu' = 1  # constant source\n")
        assert sys.fields == ("u",)

    def test_parse_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_system("u' = 1\nv' = 2 $ 3")
        assert err.value.line == 2

    def test_missing_prime(self):
        with pytest.raises(ParseError):
            parse_system("u = 1")

    def test_lhs_must_be_bare_name(self):
        with pytest.raises(ParseError):
            parse_system("u_x' = 1")

    def test_empty_rhs(self):
        with pytest.raises(ParseError):
            parse_system("u' =")

    def test_no_equations(self):
        with pytest.raises(ParseError):
            parse_system("# nothing here\n")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_system("u' = (1 + u")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_system("u' = 1 2")

    def test_exponent_must_be_positive_integer(self):
        with pytest.raises(ParseError):
            parse_system("u' = u^0")
        with pytest.raises(ParseError):
            parse_system("u' = u^1.5")

    def test_rational_needs_integer_parts(self):
        with pytest.raises(ParseError):
            parse_system("u' = 1.5/2")
        with pytest.raises(ParseError):
            parse_system("u' = 1/0")

    def test_unknown_subscript(self):
        with pytest.raises(ParseError):
            parse_system("u' = u_y")

    @pytest.mark.parametrize(
        "rhs", ["(" * 3000 + "v" + ")" * 3000, "-" * 3000 + "v"], ids=["parentheses", "minuses"]
    )
    def test_nesting_past_the_recursion_limit_names_the_line(self, rhs):
        # The parser recurses once per level; past the interpreter's limit
        # the input is refused, not left to a RecursionError.
        message = "^line 2: right-hand side of 'v' is nested too deeply$"
        with pytest.raises(ParseError, match=message):
            parse_system("u' = v\nv' = " + rhs)

    def test_a_150_deep_system_still_solves(self):
        deep = parse_system("u' = " + "(" * 150 + "u*v" + ")" * 150 + "\nv' = " + "-" * 150 + "u")
        flat = parse_system("u' = u*v\nv' = u")
        assert deep.equations[0] == flat.equations[0]
        solution = solve(deep, [[0.5, 1.0], [1.0, -0.25]], 6)
        assert solution.series == solve(flat, [[0.5, 1.0], [1.0, -0.25]], 6).series
        assert residual(deep, solution) == 0.0


class TestPretty:
    def test_roundtrip_is_fixed_point(self):
        texts = [
            "u' = -11/2 * (1 - u^2)",
            "u' = -11/4 + 11*(u - 1)^2",
            "u' = d_x^5(u) - u_xxx * u",
            "a' = -(a + b)^2\nb' = a - -b",
            "u' = 2 * -3/4 * u",
        ]
        for text in texts:
            sys = parse_system(text)
            assert parse_system(sys.pretty()) == sys

    def test_pretty_readable_forms(self):
        sys = parse_system("u' = -5.5 * u_x")
        assert sys.pretty() == "u' = -11/2 * u_x"
        assert pretty(Pow(Field(0), 2), ("u",)) == "u^2"


class TestEvalRhs:
    def test_spatial_derivative_of_kink(self):
        sys = parse_system("u' = u_x")
        state = [TimeSeries([TanhPoly([0.0, 1.0])])]
        (out,) = eval_rhs(sys, state, 0)
        assert out.coeffs[0] == TanhPoly([1.0, 0.0, -1.0])

    def test_cauchy_square(self):
        sys = parse_system("u' = u^2")
        state = [TimeSeries([TanhPoly([0.0, 1.0]), TanhPoly([1.0]), TanhPoly([0.0])])]
        (out,) = eval_rhs(sys, state, 2)
        assert out.coeffs[0] == TanhPoly([0.0, 0.0, 1.0])
        assert out.coeffs[1] == TanhPoly([0.0, 2.0])
        assert out.coeffs[2] == TanhPoly([1.0])

    def test_constant_rhs(self):
        sys = parse_system("u' = 3")
        state = [TimeSeries([7.0, 7.0])]
        (out,) = eval_rhs(sys, state, 1)
        assert [p.coeffs[0] for p in out.coeffs] == [3.0, 0.0]

    def test_result_has_requested_order(self):
        sys = parse_system("u' = u")
        state = [TimeSeries([1.0, 2.0, 3.0])]
        (out,) = eval_rhs(sys, state, 1)
        assert out.order == 1

    def test_state_length_checked(self):
        sys = parse_system("u' = u\nv' = u")
        with pytest.raises(ConfigError, match="^system has 2 fields but state has 1 entries$"):
            eval_rhs(sys, [TimeSeries([1.0])], 0)

    def test_state_order_checked(self):
        sys = parse_system("u' = u")
        with pytest.raises(
            ConfigError,
            match="^field u has order 0; evaluating to order 2 needs 3 coefficients$",
        ):
            eval_rhs(sys, [TimeSeries([1.0])], 2)

    def test_additive_nodes_are_linear(self):
        sys = parse_system("u' = u\nv' = v\nw' = u + v\ns' = u - v\nn' = -u")
        state = [
            TimeSeries([TanhPoly([0.0, 1.0]), TanhPoly([2.0])]),
            TimeSeries([TanhPoly([1.0, -1.0]), TanhPoly([0.5])]),
            TimeSeries([0.0, 0.0]),
            TimeSeries([0.0, 0.0]),
            TimeSeries([0.0, 0.0]),
        ]
        w, s, n = eval_rhs(sys, state, 1)[2:]
        # u + v, u - v and -u, row by row, from u = [[0, 1], [2]] and
        # v = [[1, -1], [0.5]].
        assert w == TimeSeries([[1.0], [2.5]])
        assert s == TimeSeries([[-1.0, 2.0], [1.5]])
        assert n == TimeSeries([[-0.0, -1.0], [-2.0]])

    def test_deriv_commutes_with_truncation(self):
        sys = parse_system("u' = u_xx")
        full = TimeSeries([TanhPoly([0.0, 1.0]), TanhPoly([0.5, 0.5]), TanhPoly([1.0])])
        (da,) = eval_rhs(sys, [full], 1)
        (db,) = eval_rhs(sys, [TimeSeries(full.coeffs[:2])], 1)
        assert da == db

    @pytest.mark.parametrize(
        ("u", "field"),
        [
            # u's right-hand side overflows from order 1, v's from order 0.
            ([0.0, 1e200], "v"),
            # Both overflow from order 0: the first field.
            ([1e200, 1e200], "u"),
        ],
        ids=["order", "field"],
    )
    def test_names_the_first_order_then_field_that_is_not_finite(self, u, field):
        sys = parse_system("u' = u*u\nv' = v*v")
        state = [TimeSeries([[c] for c in u]), TimeSeries([[1e200], [1e200]])]
        message = f"^order 0 of the right-hand side of field {field} is not finite: "
        with pytest.raises(TaylorPdeError, match=message + "coefficient of w\\^0 is inf$") as err:
            eval_rhs(sys, state, 1)
        assert type(err.value) is TaylorPdeError

    @pytest.mark.parametrize(
        ("u", "message"),
        [
            # u*u overflows at order 0, but every state row is checked
            # before any right-hand side: the inf state row of order 1.
            ([1e200, math.inf], "^order 1 of field u is not finite: "),
            # The inf state row of order 0 comes before any right-hand side.
            ([math.inf, 1e200], "^order 0 of field u is not finite: "),
        ],
        ids=["right-hand-side", "state"],
    )
    def test_checks_the_state_before_the_right_hand_sides(self, u, message):
        sys = parse_system("u' = u*u")
        with pytest.raises(TaylorPdeError, match=message + "coefficient of w\\^0 is inf$") as err:
            eval_rhs(sys, [TimeSeries([[c] for c in u])], 1)
        assert type(err.value) is TaylorPdeError


class TestRowEvaluator:
    @pytest.mark.parametrize(
        "rows",
        [[[1.0], [2.0], [math.inf]], [[1.0]]],
        ids=["one-too-many", "one-too-few"],
    )
    def test_advance_checks_the_row_count(self, rows):
        # An extra row, even an inf one, is not dropped unread.
        evaluator = RowEvaluator(parse_system("u' = v\nv' = u"))
        message = f"^system has 2 fields but state has {len(rows)} entries$"
        with pytest.raises(ConfigError, match=message):
            evaluator.advance([np.array(r) for r in rows])

    def test_extend_checks_the_field_count(self):
        # Before it looks at the rows: the third field's inf is not named.
        evaluator = RowEvaluator(parse_system("u' = v\nv' = u"))
        columns = [[[1.0]], [[2.0]], [[math.inf]]]
        with pytest.raises(ConfigError, match="^system has 2 fields but state has 3 entries$"):
            evaluator.extend([[np.array(r) for r in col] for col in columns])

    @pytest.mark.parametrize("form", ["u + {c}", "{c} + u", "u - {c}", "{c} - u"])
    def test_sum_with_a_constant_whose_later_rows_are_nan(self, form):
        # 10^200 * 10^200 is inf, and inf times the 2's zero later rows is
        # nan: a constant whose row 0 is inf and every later row nan.  Its
        # sum or difference with u is add_rows or sub_rows of their rows,
        # bit for bit, whatever the fold does past row 0.
        big = "1" + "0" * 200
        c = f"({big} * {big} * 2)"
        evaluator = RowEvaluator(parse_system(f"u' = {c}\nv' = " + form.format(c=c)))
        # Heads of both signs of zero; a row as long as the constant's.
        u = [np.array([0.5, 1.0, -0.0, -0.25]), np.array([-0.0]), np.array([0.0, 3.0])]
        with np.errstate(over="ignore", invalid="ignore"):
            for j, row in enumerate(u):
                constant, value = evaluator.advance([row, row])
                assert np.isinf(constant).all() if j == 0 else np.isnan(constant).all()
                a, b = (row, constant) if form.startswith("u") else (constant, row)
                expected = add_rows(a, b) if "+" in form else sub_rows(a, b)
                assert value.tobytes() == expected.tobytes()
