"""Every name a module exports exists."""

import importlib
import pkgutil

import pytest

import quadtile

MODULES = ["quadtile"] + [
    f"quadtile.{info.name}" for info in pkgutil.iter_modules(quadtile.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    # [TRIVIAL] a name left in __all__ after its definition was deleted
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
