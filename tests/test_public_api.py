"""The public surface is consistent: every name in an ``__all__`` exists,
and every annotation in the package resolves at run time."""

import ast
import importlib
import inspect
import pkgutil
import types
import typing

import pytest

import availkit
from availkit import Bridge, KofN, Leaf, Parallel, Series

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


def _defined_functions(module):
    """Every function and method a module defines at its top level or in a
    class body, by qualified name: properties' getters, class methods and
    cached functions included. Closures are left out, as their factory must
    be called to reach them."""
    found = {}
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).values() if isinstance(obj, type) else [obj]
        for member in members:
            member = member.fget if isinstance(member, property) else member
            member = inspect.unwrap(getattr(member, "__func__", member))
            if inspect.isfunction(member):
                found[member.__qualname__] = member
    return found


def _defs_in_source(module):
    tree = ast.parse(inspect.getsource(module))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    # availkit imports no typing at run time, and no name of an annotation
    # hides behind a TYPE_CHECKING guard, so get_type_hints resolves them all
    module = importlib.import_module(name)
    functions = _defined_functions(module)
    assert set(functions) == _defs_in_source(module)
    unresolved = {}
    for qualname, function in functions.items():
        try:
            typing.get_type_hints(function)
        except (NameError, TypeError) as exc:  # a name the module cannot see, or not a type
            unresolved[qualname] = repr(exc)
    assert unresolved == {}


def test_block_annotates_a_caller_and_checks_an_instance():
    def f(b: "availkit.Block") -> "availkit.Block":
        return b

    assert typing.get_type_hints(f) == {"b": availkit.Block, "return": availkit.Block}
    assert isinstance(availkit.Block, types.UnionType)
    assert typing.get_args(availkit.Block) == (Leaf, Series, Parallel, KofN, Bridge)
    assert isinstance(Leaf("a"), availkit.Block)
    assert not isinstance("a", availkit.Block)
