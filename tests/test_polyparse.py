from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import all_variable_polynomials
from pardual.polyparse import MAX_DEGREE, MAX_EXPONENT, MAX_TERMS, ParseError, parse, print_poly
from pardual.polyring import X1, X2, Polynomial


class TestParse:
    def test_cubic(self):
        p = parse("x1^3 - x1^2 - x2^2 + x2 - 1")
        assert p.terms == {
            ((X1, 3),): Fraction(1),
            ((X1, 2),): Fraction(-1),
            ((X2, 2),): Fraction(-1),
            ((X2, 1),): Fraction(1),
            (): Fraction(-1),
        }

    def test_fig9_curve(self):
        p = parse("x1^2*x2 - 1")
        assert p.terms == {((X1, 2), (X2, 1)): Fraction(1), (): Fraction(-1)}

    def test_zero(self):
        assert parse("0") == Polynomial.zero()

    def test_rationals(self):
        assert parse("3/2*x1 - 1/4") == Fraction(3, 2) * Polynomial.variable(X1) - Fraction(1, 4)

    def test_unary_minus_head(self):
        assert parse("-x1^2 + 1") == 1 - Polynomial.variable(X1) ** 2
        assert parse("-2*x1") == -2 * Polynomial.variable(X1)

    def test_unary_minus_after_paren(self):
        assert parse("x1*(-x2 + 1)") == parse("x1 - x1*x2")

    def test_parenthesized_power(self):
        assert parse("(x1 + 1)^2") == parse("x1^2 + 2*x1 + 1")

    def test_whitespace_insignificant(self):
        assert parse(" x1 +  x2 ") == parse("x1+x2")


class TestParseErrors:
    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError) as err:
            parse("2x1")
        assert err.value.position == 2

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + foo")
        assert "foo" in str(err.value)
        assert err.value.position == 6

    def test_trailing_operator(self):
        with pytest.raises(ParseError) as err:
            parse("x1 +")
        assert err.value.position == 5

    def test_exponent_overflow(self):
        parse("x1^64")
        with pytest.raises(ParseError) as err:
            parse("x1^65")
        assert "overflow" in str(err.value)

    def test_degree_budget(self):
        assert MAX_DEGREE == MAX_EXPONENT
        assert parse("x1^32*x2^32") == parse("x2^32*x1^32")
        assert parse("(x1^32)^2") == parse("x1^64")
        # products and powers are refused before they are expanded
        for text, position in (("(x1^64)^2", 9), ("x1^64*x1", 6), ("x1*x2*x1^63", 6),
                               ("(x1^8)^9", 8)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert "degree" in str(err.value)
            assert err.value.position == position

    def test_term_budget(self, monkeypatch):
        nine = "(x1+x2+x3+eta+xi+psi+x+y+1)"
        assert len(parse(f"{nine}^6").terms) == 3003
        assert 2145 <= MAX_TERMS < 6435  # (x1+x2+1)^64 parses, nine^7 does not
        # refused before expanding: the power and the big product never run
        multiply = Polynomial.__mul__

        def small_products_only(a, b):
            assert len(a.terms) * len(b.terms) <= 9 * 3003, "expanded past the budget"
            return multiply(a, b)

        monkeypatch.setattr(Polynomial, "__mul__", small_products_only)
        for text, position in ((f"{nine}^10", 29), (f"{nine}^5*{nine}^5", 30),
                               ("*".join([nine] * 10), 168)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert "term count" in str(err.value)
            assert err.value.position == position

    def test_negative_exponent(self):
        with pytest.raises(ParseError):
            parse("x1^-2")

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as err:
            parse("1/0")
        assert "denominator" in str(err.value)

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse("(x1 + x2")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("")

    def test_stray_character(self):
        with pytest.raises(ParseError) as err:
            parse("x1 ? x2")
        assert err.value.position == 4

    def test_division_between_factors(self):
        with pytest.raises(ParseError):
            parse("x1/2")

    @given(st.text(max_size=30))
    def test_never_panics(self, text):
        try:
            parse(text)
        except ParseError:
            pass


class TestPrint:
    def test_zero(self):
        assert print_poly(Polynomial.zero()) == "0"

    def test_difference_of_squares(self):
        assert print_poly(parse("x1^2 - x2^2")) == "x1^2 - x2^2"

    def test_graded_lex_order(self):
        assert print_poly(parse("1 + x2 + x1 + x1*x2")) == "x1*x2 + x1 + x2 + 1"
        assert print_poly(parse("4*y^3 + 27*x^3 - 27*x^2")) == "27*x^3 + 4*y^3 - 27*x^2"

    def test_leading_negative(self):
        assert print_poly(parse("-x1^2 + x2")) == "-x1^2 + x2"

    def test_unit_coefficients_omitted(self):
        assert print_poly(parse("1*x1 - 1*x2")) == "x1 - x2"

    def test_rational_coefficient(self):
        assert print_poly(parse("3/2*x1 - 1/4")) == "3/2*x1 - 1/4"

    def test_constant(self):
        assert print_poly(parse("-7")) == "-7"

    @given(all_variable_polynomials)
    def test_round_trip(self, p):
        assert parse(print_poly(p)) == p

