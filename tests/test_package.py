import importlib
import pkgutil

import pytest

import capwaves

MODULES = [m.name for m in pkgutil.iter_modules(capwaves.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"capwaves.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
