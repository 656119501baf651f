"""Every name a module lists in ``__all__`` exists on it, so a stale entry
fails here and not only under ``from biphoton.<module> import *``."""

import importlib
import pkgutil

import pytest

import biphoton

MODULES = sorted(f"biphoton.{m.name}" for m in pkgutil.iter_modules(biphoton.__path__))


def test_modules_found():
    assert {"biphoton.schemes", "biphoton.spectrum", "biphoton.units"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
