import importlib
import pkgutil

import pytest

import seqdg

MODULES = ["seqdg"] + sorted(f"seqdg.{m.name}" for m in pkgutil.iter_modules(seqdg.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
