"""Every name a module exports in __all__ is bound in it, so deleting a
function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import cauchysketch

MODULES = ["cauchysketch"] + [
    f"cauchysketch.{info.name}" for info in pkgutil.iter_modules(cauchysketch.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == [], f"{name}.__all__ names unbound {missing}"
