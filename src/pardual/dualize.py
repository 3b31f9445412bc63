"""Point-curve duals of planar algebraic curves in parallel coordinates.

The centerpiece is dual_curve, the elimination pipeline: lift the curve
to a homogeneous cone, rescale onto gradient directions and land them in
image coordinates via eta -> 1-x, xi -> x, psi -> -y, take the resultant
of the two partial derivatives (by evaluation and interpolation, see
elimination), strip the y-power multiplier, and normalize.  A numeric
sampling oracle (sample_curve + verify_duality) cross-checks the symbolic
output against the fundamental point-image map, and a closed form covers
the conic special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .elimination import as_binary_form, resultant
from .polyring import (
    VAR_NAMES,
    X,
    X1,
    X2,
    X3,
    Y,
    FloatForm,
    Monomial,
    Polynomial,
    content_and_primitive,
    homogenize,
    partial_derivative,
    substitute,
    total_degree,
    variables,
)

F_TOL_REL = 1e-12          # on-curve residual, relative to local term scale
SINGULAR_TOL = 1e-9        # minimum gradient norm for a usable sample
DENOM_TOL = 1e-9           # slope-1 tangents map to ideal points
RESIDUAL_THRESHOLD = 1e-6  # verification pass mark
DEFAULT_SPACING = 1.0

_SAMPLES_PER_LINE = 64
_BISECT_STEPS = 80
_NEWTON_STEPS = 5


class DegreeError(ValueError):
    """Input degree outside what the operation supports."""


class DegenerateCurveError(ValueError):
    """The elimination collapsed: reducible input or shared partial factor."""


class IdealPointError(ValueError):
    """The requested image lies at infinity (slope-1 tangent)."""


class NoSamplesError(ValueError):
    """Verification had nothing to test."""


class PlanePoint(NamedTuple):
    x: float
    y: float


class ImplicitCurve:
    """Curve f(x1, x2) = 0 of degree n >= 1; irreducibility is the caller's
    promise (the R == 0 check in dual_curve is the safety net).

    form and gradient are f and its partials (f1, f2) compiled once for
    the float views (sampling, point images, residuals)."""

    __slots__ = ("f", "n", "form", "gradient")

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
        self.form = FloatForm(f, X1, X2)
        self.gradient = (FloatForm(partial_derivative(f, X1), X1, X2),
                         FloatForm(partial_derivative(f, X2), X1, X2))

    def __repr__(self) -> str:
        return f"ImplicitCurve({self.f!r})"


@dataclass(frozen=True, slots=True)
class DualCurve:
    """Primitive, positive-leading image polynomial in (x, y)."""

    g: Polynomial
    source_degree: int
    psi_power_removed: int


@dataclass(frozen=True)
class CurveSamples:
    points: tuple[tuple[float, float], ...]
    gradients: tuple[tuple[float, float], ...]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class VerifyReport:
    max_residual: float
    tested: int
    skipped: int


def dual_curve(curve: ImplicitCurve) -> DualCurve:
    """Run the transform and return the canonical dual polynomial.

    Steps: homogenize with x3; substitute x1 -> psi*x1, x2 -> psi*x2,
    x3 -> -(eta*x1 + xi*x2) together with the image map eta -> 1-x,
    xi -> x, psi -> -y; take the resultant of the two partial derivatives
    as binary forms in (x1, x2); strip the y^k multiplier (psi^k before
    the image map) and normalize to the primitive positive-leading
    representative.

    Applying the image map first is sound: substitution is a ring
    homomorphism, so it commutes with the partial derivatives in (x1, x2)
    and with the determinant.  The partials and the resultant are
    homogeneous in (eta, xi, psi), and such a polynomial vanishes on the
    plane eta + xi = 1 only when it is zero, so the vanishing checks and
    the stripped power k are those of the resultant in (eta, xi, psi).
    """
    if curve.n < 2:
        raise DegreeError("dual_curve needs degree >= 2 (lines dualize to points)")
    x1 = Polynomial.variable(X1)
    x2 = Polynomial.variable(X2)
    eta, xi, psi = 1 - Polynomial.variable(X), Polynomial.variable(X), -Polynomial.variable(Y)
    cone = homogenize(curve.f, X3)
    lifted = substitute(cone, {X1: psi * x1, X2: psi * x2, X3: -(eta * x1 + xi * x2)})
    d1 = partial_derivative(lifted, X1)
    d2 = partial_derivative(lifted, X2)
    if not d1 or not d2:
        raise DegenerateCurveError("a partial derivative vanished identically")
    r = resultant(as_binary_form(d1), as_binary_form(d2))
    if not r:
        raise DegenerateCurveError(
            "degenerate input: resultant vanished identically "
            "(reducible curve or common factor of partials)")
    exponents = [(dict(mono).get(X, 0), dict(mono).get(Y, 0)) for mono in r.terms]
    k = min(b for _, b in exponents)
    stripped = Polynomial({_image_monomial(a, b - k): coeff
                           for (a, b), coeff in zip(exponents, r.terms.values())})
    _, g = content_and_primitive(stripped)
    if total_degree(g) == 0:
        raise DegenerateCurveError(
            "the dual collapsed to a constant (reducible or degenerate input)")
    return DualCurve(g=g, source_degree=curve.n, psi_power_removed=k)


_IMAGE_MONOMIALS: dict[tuple[int, int], Monomial] = {}


def _image_monomial(a: int, b: int) -> Monomial:
    """The monomial x^a * y^b, one shared object per exponent pair (at most
    (n(n-1) + 1)^2 of them for duals of degree-n curves), so that duals
    kept alive together do not each hold their own copies."""
    return _IMAGE_MONOMIALS.setdefault((a, b), tuple(p for p in ((X, a), (Y, b)) if p[1]))


@dataclass(frozen=True)
class ConicMatrix:
    """Symmetric matrix (a1 a4 a5; a4 a2 a6; a5 a6 a3) of a conic
    a1*u^2 + 2*a4*u*v + 2*a5*u + a2*v^2 + 2*a6*v + a3.

    A source conic must have one of a1, a2, a4 nonzero (genuine degree 2);
    dual matrices produced by conic_dual_matrix are not constrained.
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
        return (self.a1 * (self.a2 * self.a3 - self.a6 ** 2)
                - self.a4 * (self.a4 * self.a3 - self.a6 * self.a5)
                + self.a5 * (self.a4 * self.a6 - self.a2 * self.a5))

    def polynomial(self, vu: int, vv: int) -> Polynomial:
        u = Polynomial.variable(vu)
        v = Polynomial.variable(vv)
        return (self.a1 * u * u + 2 * self.a4 * u * v + 2 * self.a5 * u
                + self.a2 * v * v + 2 * self.a6 * v + self.a3)


def conic_dual_matrix(source: ConicMatrix) -> ConicMatrix:
    """Closed-form dual conic; agrees with dual_curve up to a scalar."""
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


def _on_curve_tolerance(curve: ImplicitCurve, x1v: float, x2v: float) -> float:
    return F_TOL_REL * (1.0 + curve.form.max_abs_term(x1v, x2v))


def point_image_on_dual(curve: ImplicitCurve, point: tuple[float, float]) -> PlanePoint:
    """Image of a curve point under the fundamental duality:
    x = f2 / (f1 + f2), y = (x1*f1 + x2*f2) / (f1 + f2)."""
    x1v, x2v = point
    value = curve.form(x1v, x2v)
    if abs(value) > _on_curve_tolerance(curve, x1v, x2v):
        raise ValueError(f"point {point} is not on the curve (|f| = {abs(value):.3g})")
    f1 = curve.gradient[0](x1v, x2v)
    f2 = curve.gradient[1](x1v, x2v)
    denominator = f1 + f2
    if abs(denominator) < DENOM_TOL:
        raise IdealPointError("slope-1 tangent maps to ideal point")
    return PlanePoint(f2 / denominator, (x1v * f1 + x2v * f2) / denominator)


def line_dual_point(m: float, b: float, d: float = DEFAULT_SPACING) -> PlanePoint:
    """Dual point of the line x2 = m*x1 + b, axes d apart."""
    if d <= 0:
        raise ValueError("axis spacing must be positive")
    if m == 1:
        raise IdealPointError("slope-1 line maps to an ideal point")
    return PlanePoint(d / (1.0 - m), b / (1.0 - m))


def point_to_polyline(values: Sequence[Fraction | float],
                      d: float = DEFAULT_SPACING) -> list[PlanePoint]:
    """Polygonal-line representation of an n-dimensional point: vertex i
    sits at ((i-1)*d, c_i) on the i-th axis."""
    if len(values) < 2:
        raise ValueError("a polyline needs at least two coordinates")
    if d <= 0:
        raise ValueError("axis spacing must be positive")
    return [PlanePoint(i * d, float(c)) for i, c in enumerate(values)]


def _horner(coeffs: list[float], t: float) -> float:
    value = 0.0
    for c in reversed(coeffs):
        value = value * t + c
    return value


def _refine_root(coeffs: list[float], lo: float, hi: float) -> float:
    flo = _horner(coeffs, lo)
    if flo == 0.0:
        return lo
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
                 target_count: int) -> CurveSamples:
    """Deterministic real points of f = 0 inside the window.

    Scans horizontal and vertical grid lines (at least 4 * target_count
    lines in total), brackets sign changes, bisects and Newton-polishes
    each root, and drops near-singular points.  Returns up to
    target_count points, evenly thinned in scan order.
    """
    xmin, xmax, ymin, ymax = window
    if not (xmin < xmax and ymin < ymax):
        raise ValueError("window must be nonempty")
    if target_count < 1:
        raise ValueError("target_count must be at least 1")
    f = curve.form
    fx1, fx2 = curve.gradient
    lines = max(16, 2 * target_count)

    points: list[tuple[float, float]] = []
    gradients: list[tuple[float, float]] = []

    def accept(x1v: float, x2v: float) -> None:
        if abs(f(x1v, x2v)) > _on_curve_tolerance(curve, x1v, x2v):
            return
        g1 = fx1(x1v, x2v)
        g2 = fx2(x1v, x2v)
        if math.hypot(g1, g2) < SINGULAR_TOL:
            return
        points.append((x1v, x2v))
        gradients.append((g1, g2))

    def scan(fixed_var: int, fixed_lo: float, fixed_hi: float,
             free_lo: float, free_hi: float, horizontal: bool) -> None:
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
                    root = _refine_root(coeffs, lo, hi)
                else:
                    previous = current
                    continue
                previous = current
                if horizontal:
                    accept(root, fixed_val)
                else:
                    accept(fixed_val, root)

    scan(X2, ymin, ymax, xmin, xmax, horizontal=True)
    scan(X1, xmin, xmax, ymin, ymax, horizontal=False)

    if len(points) > target_count:
        if target_count == 1:
            picks = [0]
        else:
            picks = [round(i * (len(points) - 1) / (target_count - 1))
                     for i in range(target_count)]
        points = [points[i] for i in picks]
        gradients = [gradients[i] for i in picks]
    return CurveSamples(tuple(points), tuple(gradients))


def verify_duality(curve: ImplicitCurve, dual: DualCurve,
                   samples: CurveSamples) -> VerifyReport:
    """Evaluate the dual polynomial at every sample's image point.

    The residual is |g(x, y)| / (1 + max |term of g at (x, y)|); samples
    whose tangent has slope 1 are skipped.
    """
    g = FloatForm(dual.g, X, Y)
    tested = 0
    skipped = 0
    worst = 0.0
    for point in samples.points:
        try:
            image = point_image_on_dual(curve, point)
        except IdealPointError:
            skipped += 1
            continue
        value = abs(g(image.x, image.y))
        scale = 1.0 + g.max_abs_term(image.x, image.y)
        worst = max(worst, value / scale)
        tested += 1
    if tested == 0:
        raise NoSamplesError("no verifiable samples")
    return VerifyReport(max_residual=worst, tested=tested, skipped=skipped)
