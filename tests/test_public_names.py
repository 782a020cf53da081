"""Each module's `__all__` names only what the module defines, each name once."""

import importlib
import pkgutil

import pytest

import shocklab

MODULES = sorted(m.name for m in pkgutil.iter_modules(shocklab.__path__, "shocklab."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
