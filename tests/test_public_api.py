import ast
import importlib
import os
import pkgutil

import pytest

import qirb

_MODULES = sorted(f"qirb.{m.name}" for m in pkgutil.iter_modules(qirb.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_only_public_names():
    # Every ``from .module import name`` in qirb/__init__.py names something
    # that module lists in its ``__all__``; a name deleted from a module but
    # left in either list fails here or in the test above.
    with open(os.path.join(os.path.dirname(qirb.__file__), "__init__.py")) as f:
        tree = ast.parse(f.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    stale = []
    for node in imports:
        assert node.level == 1
        module = importlib.import_module(f"qirb.{node.module}")
        stale += [f"{node.module}.{a.name}" for a in node.names
                  if a.name not in getattr(module, "__all__", ())]
    assert stale == []
