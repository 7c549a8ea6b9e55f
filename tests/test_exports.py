"""Every name the package and its modules export through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import spectral_edge

MODULES = ["spectral_edge"] + [f"spectral_edge.{m.name}"
                               for m in pkgutil.iter_modules(spectral_edge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
