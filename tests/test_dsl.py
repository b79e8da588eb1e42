from fractions import Fraction

import pytest

from taylorpde import (
    ConfigError,
    ParseError,
    TanhPoly,
    TimeSeries,
    eval_rhs,
    parse_system,
    pretty,
)
from taylorpde.dsl import Add, Const, Deriv, Field, Mul, Neg, Pow, Sub


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
