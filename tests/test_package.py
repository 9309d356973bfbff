import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_the_http_stack_unloaded():
    # only a fetch over the network needs urllib.request and what it pulls in
    probe = "import sys, cyclecast.cli; print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))"
    src = str(Path(cyclecast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
