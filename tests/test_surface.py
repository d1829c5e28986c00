"""The public surface resolves: package exports, module ``__all__`` lists
and the names the benchmark tracer binds from outside."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import qschur

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("qseries", "coefficients", "partitions", "bijection", "identities", "theorems")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qschur.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(qschur.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, attr in imported:
        assert hasattr(importlib.import_module(f"qschur.{module}"), attr), (module, attr)
        assert hasattr(qschur, attr), attr


def _tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    for table in (tracer.CACHES, tracer.FUNCTIONS, tracer.GENERATORS):
        for label, module, attr in table:
            assert hasattr(importlib.import_module(module), attr), (label, module, attr)
    for label, module, attr in tracer.CACHES:
        assert hasattr(getattr(importlib.import_module(module), attr), "cache_info"), label
