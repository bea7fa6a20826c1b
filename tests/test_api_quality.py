"""API-quality gates: docstrings on every public item, importability,
__all__ hygiene across the whole package, and a committed API reference
that matches the docstrings."""

import importlib
import importlib.util
import inspect
import pathlib
import pkgutil

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.endswith("__main__")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def _public_items():
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            item = getattr(module, name)
            if inspect.isfunction(item) or inspect.isclass(item):
                if item.__module__ == module_name:  # skip re-exports
                    yield module_name, name, item


@pytest.mark.parametrize(
    "module_name,name,item",
    list(_public_items()),
    ids=[f"{m}.{n}" for m, n, _ in _public_items()],
)
def test_public_items_have_docstrings(module_name, name, item):
    assert inspect.getdoc(item), f"{module_name}.{name} lacks a docstring"


def test_public_classes_document_their_methods():
    """Public (non-underscore) methods of public classes carry docstrings."""
    undocumented = []
    for module_name, name, item in _public_items():
        if not inspect.isclass(item):
            continue
        for method_name, method in inspect.getmembers(item, inspect.isfunction):
            if method_name.startswith("_") or method.__qualname__.split(".")[0] != name:
                continue
            if not inspect.getdoc(method):
                undocumented.append(f"{module_name}.{name}.{method_name}")
    assert not undocumented, f"undocumented public methods: {undocumented}"


def test_version_exposed():
    assert repro.__version__


def test_api_reference_is_current(capsys):
    """``docs/api_reference.md`` is what the generator renders today."""
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "generate_api_reference.py"
    spec = importlib.util.spec_from_file_location("generate_api_reference", script)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert generator.main(["--check"]) == 0, capsys.readouterr().out
