"""The benchmark's tracer (nilbench/tracer.py) wraps nilcert functions and
methods by name.  These tests fail when one of those names is deleted or
renamed, which would otherwise only break ``nilbench/run.py --trace 1``."""

import importlib
import importlib.util
import inspect
import pathlib
import typing

import pytest

import nilcert
from nilcert import qlinalg
from nilcert.qlinalg import Matrix, kernel_basis

TRACER_PATH = (pathlib.Path(__file__).resolve().parents[1]
               / "nilbench" / "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    # nilbench has no package __init__, so the file is loaded by path
    spec = importlib.util.spec_from_file_location("nilbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracer):
    for mod, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"nilcert.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"nilcert.{mod}.{name}"


def test_traced_methods_resolve(tracer):
    for cls_name, attr, _, is_classmethod in tracer.METHODS:
        raw = vars(getattr(qlinalg, cls_name)).get(attr)
        assert raw is not None, f"qlinalg.{cls_name}.{attr}"
        assert isinstance(raw, classmethod) == is_classmethod


def test_kernel_basis_takes_a_matrix(tracer):
    # the tracer's kernel_basis hook reads args[0].rows and args[0].cols
    first = next(iter(inspect.signature(kernel_basis).parameters))
    assert typing.get_type_hints(kernel_basis)[first] is Matrix
    t = tracer.Tracer()
    t.install()
    try:
        nilcert.kernel_basis(Matrix.zero(2, 3))
    finally:
        t.uninstall()
    assert t.kernel_cells == 6
    assert nilcert.kernel_basis is kernel_basis
