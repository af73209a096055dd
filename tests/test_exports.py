"""Every name that dcech or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import dcech

MODULES = ["dcech"] + sorted(f"dcech.{m.name}" for m in pkgutil.iter_modules(dcech.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_gives_every_export(name):
    module = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert [n for n in module.__all__ if n not in namespace] == []
