"""Every exported name exists, and the package exports each public name once.

A name left in ``__all__`` after its definition is removed would only fail
at ``from module import *`` time; this gate catches it at test time.
"""

import importlib
import pkgutil
import types

import pytest

import dualbraid

MODULES = [info.name for info in pkgutil.iter_modules(dualbraid.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"dualbraid.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_package_all_is_sorted_unique_and_complete():
    exported = dualbraid.__all__
    assert exported == sorted(exported)
    assert len(exported) == len(set(exported))
    public = {
        n
        for n, value in vars(dualbraid).items()
        if not n.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public
