"""The package surface: the names pardual exports and the records it returns."""

import ast
import copy
import importlib
import pickle
import sys
from pathlib import Path

import pytest

import pardual
from pardual.dualize import ConicMatrix, DualCurve, VerifyReport
from pardual.elimination import BinaryForm
from pardual.plot import Viewport
from pardual.polyparse import parse

# Every exported name and the module that defines it.
HOMES = {
    "pardual.dualize": [
        "ConicMatrix", "DegenerateCurveError", "DegreeError", "DualCurve",
        "ImplicitCurve", "NoSamplesError", "VerifyReport", "conic_dual_matrix",
        "dual_curve", "point_to_polyline", "sample_curve", "verify_duality",
    ],
    "pardual.polyparse": ["ParseError", "parse", "print_poly"],
    "pardual.polyring": ["Polynomial"],
}
EXPORTS = [(home, name) for home, names in HOMES.items() for name in names]


def test_all_lists_every_export():
    assert pardual.__all__ == sorted(name for _, name in EXPORTS)


@pytest.mark.parametrize("home, name", EXPORTS)
def test_name_resolves_to_home_object(home, name):
    assert getattr(pardual, name) is getattr(importlib.import_module(home), name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from pardual import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == pardual.__all__
    for home, name in EXPORTS:
        assert namespace[name] is getattr(importlib.import_module(home), name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        pardual.no_such_name
    with pytest.raises(ImportError):
        exec("from pardual import no_such_name", {})


def test_dir_lists_exports():
    assert set(pardual.__all__) <= set(dir(pardual))


RECORDS = [
    (DualCurve(parse("x^2 - y"), 2, 2), "g"),
    (Viewport(-1.0, 1.0, -2.0, 2.0, 100, 50), "width_px"),
    (VerifyReport(0.0, 1, 0), "tested"),
    (ConicMatrix.of(1, 1, -1, 0, 0, 0), "a1"),
    (BinaryForm(1, ({(1, 0): 1}, {(0, 1): 1})), "degree"),
    (Viewport(-1.0, 1.0, -1.0, 1.0), "xmin"),
]


@pytest.mark.parametrize("record, field", RECORDS)
def test_frozen_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("record", [record for record, _ in RECORDS])
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda record: pickle.loads(pickle.dumps(record))],
                         ids=["copy", "deepcopy", "pickle"])
def test_records_copy_and_pickle(record, clone):
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record


def test_record_constructors_and_defaults():
    vp = Viewport(xmin=-1.0, xmax=1.0, ymin=-2.0, ymax=2.0)
    assert (vp.width_px, vp.height_px) == (480, 480)
    assert Viewport(-1.0, 1.0, -2.0, 2.0, 100, 50).window() == (-1.0, 1.0, -2.0, 2.0)
    form = BinaryForm(degree=1, coeffs=({(1, 0): 1}, {(0, 1): 1}))
    assert form.coeffs[1] == {(0, 1): 1}


def test_runtime_imports_only_the_standard_library():
    # every import in the package, local ones included, is of pardual itself
    # or of a standard-library module
    imported = set()
    for path in sorted(Path(pardual.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module))
    assert imported
    foreign = sorted((source, name) for source, name in imported
                     if name.split(".")[0] not in sys.stdlib_module_names | {"pardual"})
    assert foreign == []
