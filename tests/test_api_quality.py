"""Package-wide API quality gates.

Walks every module under ``repro`` and enforces the conventions a
downstream user relies on: every public symbol documented, every
``__all__`` entry real, every public module carrying a docstring.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


MODULES = list(_iter_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module.__name__} lacks a module docstring"
    )


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_entries_exist(module):
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), (
            f"{module.__name__}.__all__ lists missing name {name!r}"
        )


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_callables_documented(module):
    """Every public class and function reachable via __all__ has a
    docstring, and so does every public method of those classes."""
    exported = getattr(module, "__all__", [])
    for name in exported:
        obj = getattr(module, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", "").startswith("repro") is False:
            continue
        assert inspect.getdoc(obj), f"{module.__name__}.{name} undocumented"
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr):
                    assert inspect.getdoc(attr), (
                        f"{module.__name__}.{name}.{attr_name} undocumented"
                    )


def test_no_module_exports_private_names():
    for module in MODULES:
        for name in getattr(module, "__all__", []):
            assert not name.startswith("_"), (
                f"{module.__name__} exports private name {name}"
            )
