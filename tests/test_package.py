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


def test_every_benchmark_hook_names_an_attribute_its_owner_defines(monkeypatch):
    # perfbench/spans.py wraps these names only in traced runs, so a renamed one
    # would otherwise go unnoticed by an untraced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in spans._targets()
        if attr not in owner.__dict__
    ]
    assert not missing, f"names the benchmark tracer hooks are gone: {missing}"
