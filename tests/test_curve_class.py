"""The paper's degree theorem and biduality checked by one count: the class
of a curve (its tangents through a generic point, modp.curve_class) is
the degree of its true dual, and the class of that dual is the curve's
degree.  So where dual_degree = class(f) and class(g) = n, g is a scalar
times the true dual."""

import pytest
from hypothesis import assume, given, settings

from helpers import dense_curves
from modp import curve_class
from pardual.dualize import DegenerateCurveError, ImplicitCurve, dual_curve
from pardual.polyparse import parse
from pardual.polyring import X, Y, Polynomial, total_degree

DENSE_QUARTIC = ("-9*x1^4 + 5*x1^3*x2 - 9*x1^2*x2^2 - 3*x1*x2^3 + 7*x2^4 + 4*x1^3 + 7*x1^2*x2"
                 " + 4*x1*x2^2 - 6*x2^3 - 6*x1^2 + 7*x1*x2 - x2^2 + 6*x1 - 7*x2 - 5")


def dual_of(f):
    return dual_curve(ImplicitCurve(f)).g


@pytest.mark.parametrize("source, degree", [
    ("x1^2 + x2^2 - 1", 2),
    ("x1^3 + x2^2 - 3*x1*x2", 4),  # Fig. 8: the node drops the class by 2
    ("x1^3 - x1^2 - x2^2 + x2 - 1", 6),  # Sec. 3.2
    ("x1^4 + x2^4 - 1", 12),
    (DENSE_QUARTIC, 12),
], ids=["circle", "fig8", "sec32", "fermat", "dense quartic"])
def test_dual_degree_is_the_class(source, degree):
    f = parse(source)
    g = dual_of(f)
    assert curve_class(f) == total_degree(g) == degree
    assert curve_class(g, (X, Y)) == total_degree(f)


@settings(max_examples=25)
@given(dense_curves(max_degree=3))
def test_dense_conics_and_cubics(f):
    try:
        g = dual_of(f)
    except DegenerateCurveError:  # a line pair has no dual curve
        assume(False)
    n = total_degree(f)
    if curve_class(f) == n * (n - 1):
        # smooth: g is the true dual
        assert total_degree(g) == n * (n - 1)
        assert curve_class(g, (X, Y)) == n
    else:
        # a singular point off the origin keeps its line in g (ROADMAP item 11)
        assert total_degree(g) >= curve_class(f)


@pytest.mark.parametrize("source, degree", [
    ("x1^3 + x2^2 - 3*x1*x2", 4),
    ("(x1-1)^3 + (x2-1)^2 - 3*(x1-1)*(x2-1)", 4),
    ("(x1-2)^3 + (x2+1)^2 - 3*(x1-2)*(x2+1)", 4),
    ("(x2-1)^2 - (x1-1)^3", 3),
    ("(x2-1)^2 - (x1-1)^4 + (x1-1)^5", 6),
    ("((x1-1)^2+(x2-1)^2)^2 + 3*(x1-1)^2*(x2-1) - (x2-1)^3", 6),
    ("x2^2 - (x1^2-2)^2*(x1+3) + x2^4", 16),
    ("x1^2*x2 - 1", 3),
    ("x2 - x1^3", 3),
    ("x1*x2^3 - 1", 4),
    ("x1^4*x2^2 + x1 - 1", 7),
    # reducible: the class adds over the components, and a line's is 0
    ("(x1^2+x2^2-1)*(x1-x2-3)", 2),
    ("(x1+x2)^2 - 1", 0),
])
def test_singular_curves(source, degree):
    # the true dual degrees of ROADMAP item 11's table
    assert curve_class(parse(source)) == degree


def test_negative_controls():
    f = parse("x1^3 - x1^2 - x2^2 + x2 - 1")
    g = dual_of(f)
    line = Polynomial.variable(X) - 2
    # an extra line keeps the class at n, so the degree check is what fails
    assert curve_class(g * line, (X, Y)) == 3
    assert total_degree(g * line) != curve_class(f)
    # a repeated factor: every line of the pencil is tangent to it
    assert curve_class(g * line ** 2, (X, Y)) is None
