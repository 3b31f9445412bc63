"""Exact point-curve duals of planar algebraic curves in parallel coordinates.

The names in __all__ resolve on first use (PEP 562): importing the package
loads no submodule; `pardual.dual_curve` imports pardual.dualize then.
"""

from importlib import import_module

_EXPORTS = {
    "dualize": ("ConicMatrix", "DegenerateCurveError", "DegreeError", "DualCurve",
                "ImplicitCurve", "NoSamplesError", "VerifyReport", "conic_dual_matrix",
                "dual_curve", "point_to_polyline", "sample_curve", "verify_duality"),
    "polyparse": ("ParseError", "parse", "print_poly"),
    "polyring": ("Polynomial",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
