"""Every name a module of the package exports resolves to an attribute."""

import importlib
import pkgutil

import pytest

import serreweights

MODULES = ["serreweights"] + [
    f"serreweights.{m.name}" for m in pkgutil.iter_modules(serreweights.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []
