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
A numeric sampling oracle (sample_curve + verify_duality) cross-checks
the symbolic output against the fundamental point-image map, and a
closed form covers the conic special case.
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
SINGULAR_TOL = 1e-9        # minimum gradient norm for a usable sample, relative to _gradient_scale
DENOM_TOL = 1e-9           # slope-1 tangents map to ideal points, relative to _gradient_scale
RESIDUAL_THRESHOLD = 1e-6  # verification pass mark
MAX_SOURCE_DEGREE = 12     # x1^12 + x2^12 - 1: 23.7-26.7 s in process, 2 cores; each degree ~2.5x

_SAMPLES_PER_LINE = 64
_BISECT_STEPS = 80
_NEWTON_STEPS = 5


class DegreeError(ValueError):
    """Input degree outside what the operation supports."""
    exit_code = 4


class DegenerateCurveError(ValueError):
    """The elimination collapsed: reducible input or shared partial factor."""
    exit_code = 3


class IdealPointError(ValueError):
    """The requested image lies at infinity (slope-1 tangent)."""


class NoSamplesError(ValueError):
    """Verification had nothing to test."""
    exit_code = 5


class PlanePoint(NamedTuple):
    x: float
    y: float


class ImplicitCurve:
    """Curve f(x1, x2) = 0 of degree n >= 1; irreducibility is the caller's
    promise (the R == 0 check in dual_curve is the safety net).

    Plain exact data.  Each float view (sample_curve, point_image_on_dual,
    verify_duality) compiles f and its partials once per call, so the
    exact dual never converts a coefficient to a float: one beyond the
    float range raises OverflowError only in a float view."""

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


class CurveSamples(NamedTuple):
    """Points on f = 0 and the gradient (f1, f2) at each."""

    points: tuple[tuple[float, float], ...]
    gradients: tuple[tuple[float, float], ...]


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
    map), the content and the sign of the graded-lex leading term, and
    g = R / y^k, primitive and positive-leading, is built in one step.

    Applying the image map first is sound: substitution is a ring
    homomorphism, so it commutes with the expansion, with the partial
    derivatives in (x1, x2) and with the determinant.  The partials and
    the resultant are homogeneous in (eta, xi, psi), and such a polynomial
    vanishes on the plane eta + xi = 1 only when it is zero, so the
    vanishing checks and the stripped power k are those of the resultant
    in (eta, xi, psi).
    """
    if curve.n < 2:
        raise DegreeError("dual_curve needs degree >= 2 (lines dualize to points)")
    if curve.n > MAX_SOURCE_DEGREE:
        raise DegreeError(f"dual_curve supports degree <= {MAX_SOURCE_DEGREE} (got {curve.n})")
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
    coeffs = list(r.terms.values())
    k = min(b for _, b in pairs)
    # the graded-lex leading term of x^a * y^(b-k): the largest (a + b, a)
    top, lead = max(zip(pairs, coeffs), key=lambda term: (sum(term[0]), term[0]))
    if sum(top) == k:
        raise DegenerateCurveError(
            "the dual collapsed to a constant (reducible or degenerate input)")
    content = math.gcd(*coeffs) if lead > 0 else -math.gcd(*coeffs)
    g = Polynomial({_image_monomial(a, b - k): coeff // content
                    for (a, b), coeff in zip(pairs, coeffs)})
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
    (n-i) * L_i, for i = 0..n-1.
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
    if not any(d1) or not any(d2):
        raise DegenerateCurveError("a partial derivative vanished identically")
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


def _float_forms(f: Polynomial) -> tuple[FloatForm, FloatForm, FloatForm]:
    """f and its partials f1, f2 compiled for float evaluation in (x1, x2)."""
    return tuple(FloatForm(p, X1, X2)
                 for p in (f, partial_derivative(f, X1), partial_derivative(f, X2)))


def _on_curve(form: FloatForm, x1v: float, x2v: float, value: float) -> bool:
    """|f| within F_TOL_REL of the local term scale; false for a NaN value."""
    return abs(value) <= F_TOL_REL * (1.0 + form.max_abs_term(x1v, x2v))


def _gradient_scale(f1: FloatForm, f2: FloatForm, x1v: float, x2v: float) -> float:
    """The larger of the partials' largest |term| at (x1v, x2v): the scale
    of the gradient tests, so that they do not change when f is scaled.  It
    is 0.0 where every term of both partials vanishes, and a test of the
    form `|g| <= TOL * scale` then refuses the point instead of dividing."""
    return max(f1.max_abs_term(x1v, x2v), f2.max_abs_term(x1v, x2v))


def _image(forms: tuple[FloatForm, FloatForm, FloatForm],
           point: tuple[float, float]) -> PlanePoint:
    f, f1, f2 = forms
    x1v, x2v = point
    value = f(x1v, x2v)
    if not _on_curve(f, x1v, x2v, value):
        raise ValueError(f"point {point} is not on the curve (|f| = {abs(value):.3g})")
    g1, g2 = f1(x1v, x2v), f2(x1v, x2v)
    denominator = g1 + g2
    if abs(denominator) <= DENOM_TOL * _gradient_scale(f1, f2, x1v, x2v):
        raise IdealPointError("slope-1 tangent maps to ideal point")
    return PlanePoint(g2 / denominator, (x1v * g1 + x2v * g2) / denominator)


def point_image_on_dual(curve: ImplicitCurve, point: tuple[float, float]) -> PlanePoint:
    """Image of a curve point under the fundamental duality:
    x = f2 / (f1 + f2), y = (x1*f1 + x2*f2) / (f1 + f2)."""
    return _image(_float_forms(curve.f), point)


def _require_spacing(d: float) -> None:
    if not 0 < d < math.inf:
        raise ValueError("axis spacing must be positive and finite")


def line_dual_point(m: float, b: float, d: float = DEFAULT_SPACING) -> PlanePoint:
    """Dual point of the line x2 = m*x1 + b, axes d apart."""
    _require_spacing(d)
    if m == 1:
        raise IdealPointError("slope-1 line maps to an ideal point")
    return PlanePoint(d / (1.0 - m), b / (1.0 - m))


def point_to_polyline(values: Sequence[Fraction | float],
                      d: float = DEFAULT_SPACING) -> list[PlanePoint]:
    """Polygonal-line representation of an n-dimensional point: vertex i
    sits at ((i-1)*d, c_i) on the i-th axis."""
    if len(values) < 2:
        raise ValueError("a polyline needs at least two coordinates")
    _require_spacing(d)
    return [PlanePoint(i * d, float(c)) for i, c in enumerate(values)]


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
                 target_count: int) -> CurveSamples:
    """Deterministic real points of f = 0 inside the window.

    Compiles f and its partials, scans horizontal and vertical grid lines
    (at least 4 * target_count lines in total), brackets sign changes,
    bisects and Newton-polishes each root, and drops near-singular points
    (gradient norm at most SINGULAR_TOL times _gradient_scale).
    Returns up to target_count points, evenly thinned in scan order.  A
    root, f value or gradient that is not finite raises OverflowError.
    """
    xmin, xmax, ymin, ymax = window
    if not (xmin < xmax and ymin < ymax):
        raise ValueError("window must be nonempty")
    if target_count < 1:
        raise ValueError("target_count must be at least 1")
    f, fx1, fx2 = _float_forms(curve.f)
    lines = max(16, 2 * target_count)

    points: list[tuple[float, float]] = []
    gradients: list[tuple[float, float]] = []

    def accept(x1v: float, x2v: float) -> None:
        value = f(x1v, x2v)
        _require_finite("(x1, x2, f)", x1v, x2v, value)
        if not _on_curve(f, x1v, x2v, value):
            return
        g1, g2 = fx1(x1v, x2v), fx2(x1v, x2v)
        _require_finite("(f1, f2)", g1, g2)
        if math.hypot(g1, g2) <= SINGULAR_TOL * _gradient_scale(fx1, fx2, x1v, x2v):
            return
        points.append((x1v, x2v))
        gradients.append((g1, g2))

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
        gradients = [gradients[i] for i in picks]
    return CurveSamples(tuple(points), tuple(gradients))


def verify_duality(curve: ImplicitCurve, dual: DualCurve,
                   samples: CurveSamples) -> VerifyReport:
    """Evaluate the dual polynomial at every sample's image point.

    The residual is |g(x, y)| / (1 + max |term of g at (x, y)|); samples
    whose tangent has slope 1 are skipped, and a residual that is not
    finite raises OverflowError.  f, its partials and g compile once.
    """
    forms = _float_forms(curve.f)
    g = FloatForm(dual.g, X, Y)
    tested = 0
    skipped = 0
    worst = 0.0
    for point in samples.points:
        try:
            x, y = _image(forms, point)
        except IdealPointError:
            skipped += 1
            continue
        residual = abs(g(x, y)) / (1.0 + g.max_abs_term(x, y))
        _require_finite("(x, y, residual)", x, y, residual)
        worst = max(worst, residual)
        tested += 1
    if tested == 0:
        raise NoSamplesError("no verifiable samples")
    return VerifyReport(max_residual=worst, tested=tested, skipped=skipped)
