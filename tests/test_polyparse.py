import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import all_variable_polynomials
from pardual.polyparse import (
    MAX_COEFF_DIGITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_TERMS,
    ParseError,
    parse,
    print_poly,
)
from pardual.polyring import ONE_MONOMIAL, X1, X2, Polynomial, monomial


class TestParse:
    def test_cubic(self):
        p = parse("x1^3 - x1^2 - x2^2 + x2 - 1")
        assert p.terms == {
            monomial((X1,), (3,)): Fraction(1),
            monomial((X1,), (2,)): Fraction(-1),
            monomial((X2,), (2,)): Fraction(-1),
            monomial((X2,), (1,)): Fraction(1),
            ONE_MONOMIAL: Fraction(-1),
        }

    def test_fig9_curve(self):
        p = parse("x1^2*x2 - 1")
        assert p.terms == {monomial((X1, X2), (2, 1)): Fraction(1), ONE_MONOMIAL: Fraction(-1)}

    def test_zero(self):
        assert parse("0") == Polynomial()

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

    @pytest.mark.parametrize("name", ["x3", "eta", "xi", "psi"])
    def test_paper_notation_is_not_a_variable(self, name):
        # the variables are x1, x2, x and y; the paper's homogenizing x3 and
        # gradient directions (eta, xi, psi) are notation only
        with pytest.raises(ParseError, match=f"unknown variable '{name}' at offset 1"):
            parse(name)
        with pytest.raises(ParseError, match=f"unknown variable '{name}' at offset 6"):
            parse(f"x1 + {name}*x2")

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

    def test_sum_term_budget(self, monkeypatch):
        # the first monomials of degree <= 16 in x1, x2, x and y, in graded order
        exps = sorted((e for e in itertools.product(range(17), repeat=4) if sum(e) <= 16),
                      key=lambda e: (sum(e), e))[:MAX_TERMS + 1]
        monos = ["*".join(f"{name}^{k}" for name, k in zip(("x1", "x2", "x", "y"), e) if k)
                 or "1" for e in exps]
        head = " + ".join(monos[:MAX_TERMS])
        assert len(parse(head).terms) == MAX_TERMS
        # one term more is refused at the end of input, in time linear in the sum's length
        text = f"{head} + {monos[-1]}"
        start = time.perf_counter()
        with pytest.raises(ParseError, match=r"term count overflow \(> 4096\)") as err:
            parse(text)
        assert time.perf_counter() - start < 1.0
        assert err.value.position == len(text) + 1
        # mid-sum, at the operator after the term that went over (a ')' closing
        # a bracketed sum); a cancelled term leaves the sum and frees its place
        monkeypatch.setattr("pardual.polyparse.MAX_TERMS", 3)
        assert parse("x1 + x2 - x1 + x + y - (x2 + y)") == parse("x")
        for text, position in (("x1 + x2 + x + y - x1", 17), ("x1 + x2*(x + y + 1 + x1)", 24),
                               ("(x1 + x2 + x + y) - x", 17)):
            with pytest.raises(ParseError, match=r"term count overflow \(> 3\)") as err:
                parse(text)
            assert err.value.position == position

    def test_term_budget(self, monkeypatch):
        five = "(x1+x2+x+y+1)"  # every variable: five^k has C(k + 4, 4) terms
        assert 3876 <= MAX_TERMS < 4845  # five^15 parses, five^16 does not
        # refused before expanding: the power and the big product never run
        multiply = Polynomial.__mul__
        sizes = []

        def small_products_only(a, b):
            assert len(a.terms) * len(b.terms) <= 5 * 3876, "expanded past the budget"
            product = multiply(a, b)
            sizes.append(len(product.terms))
            return product

        monkeypatch.setattr(Polynomial, "__mul__", small_products_only)
        for text, position in ((f"{five}^16", 15), (f"{five}^8*{five}^8", 16),
                               ("*".join([five] * 16), 210)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert "term count" in str(err.value)
            assert err.value.position == position
        # the long product expanded its first fifteen factors, five^15, in full
        assert sizes[-1] == 3876

    def test_coefficient_budget(self, monkeypatch):
        assert parse("(10^64)^60") == 10 ** 3840
        assert parse("9" * MAX_COEFF_DIGITS + "*x1") == (10 ** MAX_COEFF_DIGITS - 1) * parse("x1")
        # refused before expanding: no product has an operand past the cap
        multiply = Polynomial.__mul__

        def small_products_only(a, b):
            for operand in (a, b):
                assert all(max(abs(c.numerator), c.denominator) < 10 ** MAX_COEFF_DIGITS
                           for c in operand.terms.values()), "expanded past the budget"
            return multiply(a, b)

        monkeypatch.setattr(Polynomial, "__mul__", small_products_only)
        # 25 characters that once expanded to a 2^30-bit integer
        for text, position in (("((((2^64)^64)^64)^64)^64", 15), ("(10^64)^63", 9),
                               ("(1/10^64)^63", 11), ("(10^64)^32*(10^64)^32", 11),
                               ("9" * MAX_COEFF_DIGITS + "^2", MAX_COEFF_DIGITS + 2)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert "coefficient overflow" in str(err.value)
            assert err.value.position == position
        # a literal's digits are counted before it is converted to an int
        with pytest.raises(ParseError) as err:
            parse("x1 + " + "1" * (MAX_COEFF_DIGITS + 1))
        assert "coefficient overflow" in str(err.value)
        assert err.value.position == 6

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

    @pytest.mark.parametrize("text, position", [
        ("x1 + \u0663", 6),  # ARABIC-INDIC DIGIT THREE
        ("\uff381 + 1", 1),  # FULLWIDTH LATIN CAPITAL LETTER X
        ("2*x\u00e9", 4),  # LATIN SMALL LETTER E WITH ACUTE, inside a name
        ("x1\f+ 1", 3),  # form feed is not whitespace
    ])
    def test_ascii_only(self, text, position):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse(text)
        assert err.value.position == position

    def test_deep_parentheses(self):
        # nesting past the recursion limit is a ParseError, not a RecursionError
        with pytest.raises(ParseError, match="parentheses nested too deeply"):
            parse("(" * 1000 + "x1" + ")" * 1000)
        assert parse("(" * 100 + "x1" + ")" * 100) == parse("x1")

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
        assert print_poly(Polynomial()) == "0"

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

