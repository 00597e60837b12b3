"""The public surface is consistent: every name in an ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import availkit

MODULES = ["availkit"] + [
    f"availkit.{info.name}" for info in pkgutil.iter_modules(availkit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_star_import_gives_the_package_all():
    namespace: dict = {}
    exec("from availkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(availkit.__all__)
