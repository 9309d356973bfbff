import importlib
import pkgutil

import pytest

import cyclecast

# Importing the package is its own check: its __init__ imports every name it exports.
MODULES = ["cyclecast"] + [
    f"cyclecast.{info.name}" for info in pkgutil.iter_modules(cyclecast.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes {missing}"
