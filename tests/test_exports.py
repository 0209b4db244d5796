"""The public name lists: every exported name resolves, none repeats."""

import importlib
import pkgutil

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
