"""The public name lists: every exported name resolves, none repeats."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import levelcross

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(levelcross.__path__))


def test_package_exports_resolve():
    assert len(set(levelcross.__all__)) == len(levelcross.__all__)
    missing = [name for name in levelcross.__all__ if not hasattr(levelcross, name)]
    assert missing == []


def test_star_import_works():
    namespace = {}
    exec("from levelcross import *", namespace)
    assert set(levelcross.__all__) <= set(namespace)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"levelcross.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []


def test_import_does_not_load_scipy():
    src = str(Path(levelcross.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import levelcross, sys; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
