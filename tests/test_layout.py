"""The library layout: each public name is imported from its own module."""

import importlib
import pkgutil

import axisphere


def test_every_listed_name_belongs_to_its_module():
    """A name in a module's ``__all__`` is defined there, so it has one import path."""
    for info in pkgutil.iter_modules(axisphere.__path__):
        mod = importlib.import_module(f"axisphere.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert getattr(mod, name).__module__ == mod.__name__, (mod.__name__, name)
