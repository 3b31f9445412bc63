"""Point-curve duals of planar algebraic curves in parallel coordinates.

The centerpiece is dual_curve, the elimination pipeline: lift the curve
to a cone over the paper's gradient directions (eta, xi, psi), written in
image coordinates by eta -> 1-x, xi -> x, psi -> -y before any arithmetic
and expanded once, with integer binomials, into its coefficients in
(x1, x2); read both partials off those coefficients by Euler's rule;
take their resultant (evaluated and interpolated, see elimination);
strip the y power; normalize.  Polynomial appears only at the edges of
that path, f going in and the resultant coming out: in between, a
coefficient in (x, y) is a map {(i, j): coefficient of x^i * y^j}.
A numeric sampling oracle cross-checks the symbolic output: sample_curve
returns a tuple of (x1, x2) points of f = 0, and verify_duality evaluates
g at their images under the fundamental point-image map, raising
ValueError for a point off the curve.  A closed form covers the conic
special case.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .polyring import (
    DEFAULT_SPACING,
    VAR_NAMES,
    X,
    X1,
    X2,
    Y,
    FloatForm,
    Monomial,
    Polynomial,
    content_and_primitive,
    exponents,
    monomial,
    partial_derivative,
    total_degree,
    variables,
)

if TYPE_CHECKING:
    from .elimination import BinaryForm

F_TOL_REL = 1e-12          # on-curve residual, relative to local term scale
# Both gradient tests, |(f1, f2)| for a usable sample and |f1 + f2| for a finite image,
# compare with GRADIENT_TOL times the partials' largest |term| at the point: they hold when
# f is scaled, and where that scale is 0.0 they refuse the point instead of dividing
GRADIENT_TOL = 1e-9
RESIDUAL_THRESHOLD = 1e-6  # verification pass mark
MAX_SOURCE_DEGREE = 12     # x1^12 + x2^12 - 1: 23.7-26.7 s in process, 2 cores; each degree ~2.5x
MAX_SAMPLES = 10000        # sample_curve's target_count

_SAMPLES_PER_LINE = 64
_BISECT_STEPS = 80
_NEWTON_STEPS = 5


class DegreeError(ValueError):
    """Input degree outside what the operation supports."""
    exit_code = 4


class DegenerateCurveError(ValueError):
    """The elimination collapsed: reducible input or shared partial factor."""
    exit_code = 3


class NoSamplesError(ValueError):
    """Verification had nothing to test."""
    exit_code = 5


class ImplicitCurve:
    """Curve f(x1, x2) = 0 of degree n >= 1; irreducibility is the caller's
    promise (the R == 0 check in dual_curve is the safety net).

    Plain exact data.  Each float view (sample_curve, which returns a
    tuple of (x1, x2) points on f = 0, and verify_duality, which takes
    such points and raises ValueError for one off the curve) compiles f
    and its partials once per call, so the exact dual never converts a
    coefficient to a float: one beyond the float range raises
    OverflowError only in a float view."""

    __slots__ = ("f", "n")

    def __init__(self, f: Polynomial):
        if not f:
            raise ValueError("the zero polynomial does not define a curve")
        stray = variables(f) - {X1, X2}
        if stray:
            names = ", ".join(VAR_NAMES[v] for v in sorted(stray))
            raise ValueError(f"curve polynomial may only use x1, x2 (found {names})")
        self.f = f
        self.n = total_degree(f)
        if self.n < 1:
            raise ValueError("a constant does not define a curve")

    def __repr__(self) -> str:
        return f"ImplicitCurve({self.f!r})"


class DualCurve(NamedTuple):
    """Primitive, positive-leading image polynomial in (x, y)."""

    g: Polynomial
    source_degree: int
    psi_power_removed: int


class VerifyReport(NamedTuple):
    max_residual: float
    tested: int
    skipped: int


def dual_curve(curve: ImplicitCurve) -> DualCurve:
    """Run the transform and return the canonical dual polynomial.

    Steps: take f's primitive part, with coprime integer coefficients;
    expand the cone L(x1, x2) = F(psi*x1, psi*x2, -(eta*x1 + xi*x2)),
    F being f homogenized, once into its coefficients in (x1, x2) under
    the image map eta -> 1-x, xi -> x, psi -> -y, and read both
    partial derivatives off them by Euler's rule (_partial_forms), as
    binary forms whose coefficients are maps of exponent pairs; take
    their resultant R, a Polynomial in (x, y).  R's exponent pairs are
    read once for k, the least exponent of y (psi^k before the image
    map), and g is the primitive part of R / y^k by content_and_primitive:
    coprime integer coefficients, the graded-lex leading one positive.
    Dividing by y^k keeps the graded-lex order of the terms, so the leading
    term of g is that of R.

    Applying the image map first is sound: substitution is a ring
    homomorphism, so it commutes with the expansion, with the partial
    derivatives in (x1, x2) and with the determinant.  The resultant is
    homogeneous in (eta, xi, psi), and such a polynomial vanishes on the
    plane eta + xi = 1 only when it is zero, so the stripped power k and
    the check R == 0, which alone decides degeneracy (x1^2's partial in x2
    vanishes, and so does R), are those of the resultant in (eta, xi, psi).
    """
    _require_degree(curve)
    # elimination loads here, not with this module: the commands that reject
    # a degree or never take a resultant (conic-dual, plot-envelope) skip it
    from .elimination import resultant
    # c*f has f's dual: Res(cF1, cF2) = c^(2(n-1)) Res(F1, F2), a factor normalizing drops
    _, f = content_and_primitive(curve.f)
    r = resultant(*_partial_forms(f))
    if not r:
        raise DegenerateCurveError(
            "degenerate input: resultant vanished identically "
            "(reducible curve or common factor of partials)")
    pairs = [exponents(mono, (X, Y)) for mono in r.terms]
    k = min(b for _, b in pairs)
    _, g = content_and_primitive(Polynomial({_image_monomial(a, b - k): coeff
                                             for (a, b), coeff in zip(pairs, r.terms.values())}))
    if total_degree(g) == 0:
        raise DegenerateCurveError(
            "the dual collapsed to a constant (reducible or degenerate input)")
    return DualCurve(g=g, source_degree=curve.n, psi_power_removed=k)


def _partial_forms(f: Polynomial) -> tuple[BinaryForm, BinaryForm]:
    """dL/dx1 and dL/dx2 as binary forms with coefficients in (x, y), for
    the cone L(x1, x2) = F(psi*x1, psi*x2, -(eta*x1 + xi*x2)) of f of
    degree n, F being f homogenized, under the image map eta -> 1-x,
    xi -> x, psi -> -y.

    L is expanded once, with integer binomials, into its coefficients L_i
    of x1^i * x2^(n-i), each a map {(e, s): coefficient of x^e * y^s}: a
    term c * x1^a * x2^b of f, with k = n - a - b and s = a + b, adds
    c * (-y)^s * C(k, l) * (x-1)^l * (-x)^(k-l) to L_(a+l), for l = 0..k.
    No Polynomial is multiplied, and a rational f stays exact.  By Euler's
    rule dL/dx1 has the coefficients (i+1) * L_(i+1) and dL/dx2 has
    (n-i) * L_i, for i = 0..n-1; a partial that vanishes identically is a
    form of empty maps, which dual_curve's R == 0 check refuses.
    """
    n = total_degree(f)
    # lines[k][l]: C(k, l) * (x-1)^l * (-x)^(k-l) as (e, coefficient of x^e) pairs,
    # its x^(k-l+i) term being C(k, l) * C(l, i) * (-1)^(k-i)
    lines = [[[(k - l + i, math.comb(k, l) * math.comb(l, i) * (-1) ** (k - i))
               for i in range(l + 1)] for l in range(k + 1)] for k in range(n + 1)]
    cone = [{} for _ in range(n + 1)]
    for mono, coeff in f.terms.items():
        a, b = exponents(mono, (X1, X2))
        s = a + b
        scale = -coeff if s % 2 else coeff  # c * (-1)^s, the sign of (-y)^s
        for terms, line in zip(cone[a:], lines[n - s]):  # line l adds to L_(a+l)
            for e, c in line:
                terms[e, s] = terms.get((e, s), 0) + scale * c
    d1 = tuple({pair: (i + 1) * c for pair, c in cone[i + 1].items() if c} for i in range(n))
    d2 = tuple({pair: (n - i) * c for pair, c in cone[i].items() if c} for i in range(n))
    from .elimination import BinaryForm
    return BinaryForm(n - 1, d1), BinaryForm(n - 1, d2)


_IMAGE_MONOMIALS: dict[tuple[int, int], Monomial] = {}


def _image_monomial(a: int, b: int) -> Monomial:
    """The monomial x^a * y^b, one shared object per exponent pair (at most
    (n(n-1) + 1)^2 of them for duals of degree-n curves), so that duals
    kept alive together do not each hold their own copies.  A pair seen
    before costs one lookup and builds no monomial."""
    mono = _IMAGE_MONOMIALS.get((a, b))
    if mono is None:
        mono = _IMAGE_MONOMIALS[a, b] = monomial((X, Y), (a, b))
    return mono


class ConicMatrix(NamedTuple):
    """Symmetric matrix (a1 a4 a5; a4 a2 a6; a5 a6 a3) of a conic
    a1*u^2 + 2*a4*u*v + 2*a5*u + a2*v^2 + 2*a6*v + a3.

    conic_dual_matrix takes a source conic with one of a1, a2, a4 nonzero
    (genuine degree 2) and a nonzero determinant; the dual matrices it
    returns are not constrained.
    """

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a5: Fraction
    a6: Fraction

    @classmethod
    def of(cls, a1, a2, a3, a4, a5, a6) -> "ConicMatrix":
        return cls(Fraction(a1), Fraction(a2), Fraction(a3),
                   Fraction(a4), Fraction(a5), Fraction(a6))

    def is_degree_two(self) -> bool:
        return bool(self.a1 or self.a2 or self.a4)

    def determinant(self) -> Fraction:
        """Zero exactly for a degenerate conic: a line pair or a double line."""
        a1, a2, a3, a4, a5, a6 = self
        return (a1 * (a2 * a3 - a6 ** 2) - a4 * (a4 * a3 - a6 * a5)
                + a5 * (a4 * a6 - a2 * a5))

    def polynomial(self, vu: int, vv: int) -> Polynomial:
        u = Polynomial.variable(vu)
        v = Polynomial.variable(vv)
        return (self.a1 * u * u + 2 * self.a4 * u * v + 2 * self.a5 * u
                + self.a2 * v * v + 2 * self.a6 * v + self.a3)


def conic_dual_matrix(source: ConicMatrix) -> ConicMatrix:
    """Closed-form dual conic; agrees with dual_curve up to a scalar.  A
    source with a1, a2, a4 all zero raises ValueError, and a line pair or a
    double line (determinant 0) DegenerateCurveError."""
    if not source.is_degree_two():
        raise ValueError("A1, A2, A4 all zero: not a degree-2 curve")
    if source.determinant() == 0:
        raise DegenerateCurveError("determinant 0: a line pair or double line, no dual conic")
    a1, a2, a3 = source.a1, source.a2, source.a3
    a4, a5, a6 = source.a4, source.a5, source.a6
    return ConicMatrix(
        a1=a3 * (a1 + a2 + 2 * a4) - (a5 + a6) ** 2,
        a2=a1 * a2 - a4 ** 2,
        a3=a2 * a3 - a6 ** 2,
        a4=a6 * (a1 + a4) - a5 * (a2 + a4),
        a5=a6 ** 2 + a5 * a6 - a3 * (a2 + a4),
        a6=a2 * a5 - a4 * a6,
    )


def _float_forms(f: Polynomial) -> tuple[FloatForm, FloatForm, FloatForm]:
    """f and its partials f1, f2 compiled for float evaluation in (x1, x2)."""
    return tuple(map(FloatForm, (f, partial_derivative(f, X1), partial_derivative(f, X2))))


def _require_degree(curve: ImplicitCurve) -> None:
    if curve.n < 2:
        raise DegreeError("dual_curve needs degree >= 2 (lines dualize to points)")
    if curve.n > MAX_SOURCE_DEGREE:
        raise DegreeError(f"dual_curve supports degree <= {MAX_SOURCE_DEGREE} (got {curve.n})")


def _require_sample_count(count: int, least: int = 1) -> None:
    if not least <= count <= MAX_SAMPLES:
        raise ValueError(f"sample count must be from {least} to {MAX_SAMPLES} (got {count})")


def _require_spacing(d: float) -> None:
    if not 0 < d < math.inf:
        raise ValueError("axis spacing must be positive and finite")


def point_to_polyline(values: Sequence[Fraction | float],
                      d: float = DEFAULT_SPACING) -> list[tuple[float, float]]:
    """Polygonal-line representation of an n-dimensional point: vertex i
    sits at ((i-1)*d, c_i) on the i-th axis."""
    if len(values) < 2:
        raise ValueError("a polyline needs at least two coordinates")
    _require_spacing(d)
    return [(i * d, float(c)) for i, c in enumerate(values)]


def _require_window(window: tuple[float, float, float, float]) -> None:
    # spans first: a NaN bound also fails the order test, but it is not finite
    xmin, xmax, ymin, ymax = window
    if not (math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
        raise ValueError(f"window {window} has an x or y span that is not finite")
    if not (xmin < xmax and ymin < ymax):
        raise ValueError("window must be nonempty")


def _require_finite(names: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"{names} = {values} is not finite")


def _horner(coeffs: list[float], t: float) -> float:
    value = 0.0
    for c in reversed(coeffs):
        value = value * t + c
    return value


def _refine_root(coeffs: list[float], lo: float, hi: float, flo: float) -> float:
    """Root of p in [lo, hi], where flo = p(lo) is nonzero and p(hi) is
    zero or of the other sign."""
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = _horner(coeffs, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    derivative = [coeffs[i] * i for i in range(1, len(coeffs))]
    for _ in range(_NEWTON_STEPS):
        fval = _horner(coeffs, root)
        dval = _horner(derivative, root)
        if fval == 0.0 or dval == 0.0:
            break
        step = fval / dval
        candidate = root - step
        # damp: never accept a step that makes the residual worse
        while abs(_horner(coeffs, candidate)) > abs(fval) and abs(step) > 1e-17:
            step *= 0.5
            candidate = root - step
        if candidate == root:
            break
        root = candidate
    return root


def sample_curve(curve: ImplicitCurve, window: tuple[float, float, float, float],
                 target_count: int) -> tuple[tuple[float, float], ...]:
    """Deterministic real points (x1, x2) of f = 0 inside the window, as a tuple.

    Compiles f and its partials, scans horizontal and vertical grid lines
    (at least 4 * target_count lines in total), brackets sign changes,
    bisects and Newton-polishes each root, and drops near-singular points
    (gradient norm at most GRADIENT_TOL times the partials' largest |term|).
    Returns up to target_count points, evenly thinned in scan order.  A
    window that _require_window refuses, or a target_count outside 1 to
    MAX_SAMPLES, raises ValueError; a root, f value or gradient that is
    not finite raises OverflowError.
    """
    xmin, xmax, ymin, ymax = window
    _require_window(window)
    _require_sample_count(target_count)
    f, fx1, fx2 = _float_forms(curve.f)
    lines = max(16, 2 * target_count)

    points: list[tuple[float, float]] = []

    def accept(x1v: float, x2v: float) -> None:
        value, scale = f.at(x1v, x2v)
        _require_finite("(x1, x2, f)", x1v, x2v, value)
        if not abs(value) <= F_TOL_REL * (1.0 + scale):
            return
        (g1, scale1), (g2, scale2) = fx1.at(x1v, x2v), fx2.at(x1v, x2v)
        _require_finite("(f1, f2)", g1, g2)
        if math.hypot(g1, g2) <= GRADIENT_TOL * max(scale1, scale2):
            return
        points.append((x1v, x2v))

    def scan(fixed_var: int, fixed_lo: float, fixed_hi: float,
             free_lo: float, free_hi: float) -> None:
        for i in range(lines):
            fixed_val = fixed_lo + (i + 0.5) * (fixed_hi - fixed_lo) / lines
            coeffs = f.line(fixed_var, fixed_val)
            if not any(coeffs[1:]):
                continue
            step = (free_hi - free_lo) / _SAMPLES_PER_LINE
            previous = _horner(coeffs, free_lo)
            for j in range(1, _SAMPLES_PER_LINE + 1):
                t = free_lo + j * step
                current = _horner(coeffs, t)
                lo, hi = free_lo + (j - 1) * step, t
                if previous == 0.0:
                    root = lo
                elif (previous < 0.0) != (current < 0.0):
                    root = _refine_root(coeffs, lo, hi, previous)
                else:
                    previous = current
                    continue
                previous = current
                if fixed_var == X2:
                    accept(root, fixed_val)
                else:
                    accept(fixed_val, root)

    scan(X2, ymin, ymax, xmin, xmax)
    scan(X1, xmin, xmax, ymin, ymax)

    if len(points) > target_count:
        if target_count == 1:
            picks = [0]
        else:
            picks = [round(i * (len(points) - 1) / (target_count - 1))
                     for i in range(target_count)]
        points = [points[i] for i in picks]
    return tuple(points)


def verify_duality(curve: ImplicitCurve, dual: DualCurve,
                   samples: Sequence[tuple[float, float]]) -> VerifyReport:
    """Evaluate the dual polynomial at every sample's image point.

    samples are (x1, x2) points on f = 0, as sample_curve returns them; a
    point off the curve, or NaN, raises ValueError.  Each point maps to
    x = f2 / (f1 + f2), y = (x1*f1 + x2*f2) / (f1 + f2), where its residual
    is |g(x, y)| / (1 + max |term of g at (x, y)|).  A point whose image is
    ideal (a slope-1 tangent, or a node) counts as skipped; a residual that
    is not finite raises OverflowError.  f, its partials and g compile once.
    """
    f, f1, f2 = _float_forms(curve.f)
    g = FloatForm(dual.g)
    tested = 0
    skipped = 0
    worst = 0.0
    for point in samples:
        x1v, x2v = point
        value, scale = f.at(x1v, x2v)
        if not abs(value) <= F_TOL_REL * (1.0 + scale):  # a NaN value is off the curve
            raise ValueError(f"point {point} is not on the curve (|f| = {abs(value):.3g})")
        (g1, scale1), (g2, scale2) = f1.at(x1v, x2v), f2.at(x1v, x2v)
        denominator = g1 + g2
        if abs(denominator) <= GRADIENT_TOL * max(scale1, scale2):
            skipped += 1
            continue
        x, y = g2 / denominator, (x1v * g1 + x2v * g2) / denominator
        value, scale = g.at(x, y)
        residual = abs(value) / (1.0 + scale)
        _require_finite("(x, y, residual)", x, y, residual)
        worst = max(worst, residual)
        tested += 1
    if tested == 0:
        raise NoSamplesError("no verifiable samples")
    return VerifyReport(max_residual=worst, tested=tested, skipped=skipped)
