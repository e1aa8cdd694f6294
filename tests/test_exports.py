"""Every name a module exports must exist on it.

A stale ``__all__`` entry breaks only ``from cascadim.x import *``, which no
other test runs.
"""
import importlib
import pkgutil

import pytest

import cascadim

MODULES = [importlib.import_module(f"cascadim.{info.name}") for info in pkgutil.iter_modules(cascadim.__path__)]
EXPORTING = {module.__name__: module for module in MODULES if hasattr(module, "__all__")}


def test_package_imports():
    assert importlib.reload(cascadim).__version__


@pytest.mark.parametrize("name", sorted(EXPORTING))
def test_every_export_resolves(name):
    module = EXPORTING[name]
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
