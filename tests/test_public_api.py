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


# Exported names that nothing in the package or the benchmark calls, kept on
# purpose; every other exported name must have a caller outside the tests.
_KEPT_UNCALLED = {
    "fit_depumping": "the bright-state depumping fit of acceptance 8",
    "classify_outcome": "public post-processor of a raw outcome string",
    "resolve_reset_free": "public post-processor giving the reset-free correction",
}

# Public methods and properties that nothing in the package or the benchmark
# reads, kept on purpose; every other one must be read outside the tests.
_KEPT_UNCALLED_METHODS = {
    "StabilizerTableau.is_deterministic":
        "oracle API of the shot-by-shot frame differential test and test_tableau.py",
    "StabilizerTableau.expectation": "oracle API of test_tableau.py's Clifford-image checks",
}

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SOURCES = [os.path.join(os.path.dirname(qirb.__file__), f"{m.split('.')[1]}.py")
            for m in _MODULES]


def _loaded_names(path):
    """(name, enclosing definitions) of every name that the file at ``path``
    reads, as a bare name or as an attribute; the enclosing definitions are
    the names of the classes and functions around the read, outermost first."""
    with open(path) as f:
        tree = ast.parse(f.read())

    def walk(node, owners):
        for child in ast.iter_child_nodes(node):
            if isinstance(getattr(child, "ctx", None), ast.Load):
                if isinstance(child, ast.Name):
                    yield child.id, owners
                elif isinstance(child, ast.Attribute):
                    yield child.attr, owners
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, (*owners, child.name))
            else:
                yield from walk(child, owners)

    yield from walk(tree, ())


def _readers():
    """name -> {(file, enclosing definitions)} over the package and the
    benchmark harness, its tests left out."""
    sources = list(_SOURCES)
    for dirpath, dirnames, files in os.walk(os.path.join(_ROOT, "perfbench")):
        dirnames[:] = [d for d in dirnames if d != "tests"]
        sources += [os.path.join(dirpath, f) for f in files if f.endswith(".py")]
    readers = {}
    for path in sources:
        for name, owners in _loaded_names(path):
            readers.setdefault(name, set()).add((os.path.abspath(path), owners))
    return readers


def _read_outside(readers, name, path, definition):
    """Whether ``name`` is read anywhere but inside ``definition`` (the
    enclosing-definition names of its own body) of the file at ``path``."""
    return any(p != path or owners[:len(definition)] != definition
               for p, owners in readers.get(name, ()))


def test_every_exported_name_has_a_caller_outside_the_tests():
    # Imports and ``__all__`` lists are not reads, and a read inside the
    # name's own definition (recursion) does not count either.
    readers = _readers()
    uncalled = set()
    for module_name in _MODULES:
        module = importlib.import_module(module_name)
        own = os.path.abspath(module.__file__)
        uncalled |= {name for name in getattr(module, "__all__", ())
                     if not _read_outside(readers, name, own, (name,))}
    assert sorted(uncalled - set(_KEPT_UNCALLED)) == [], "exported, but only tests call these"
    assert sorted(set(_KEPT_UNCALLED) - uncalled) == [], "kept as uncalled, but now called"


def test_every_public_method_has_a_caller_outside_the_tests():
    # The same rule for the public methods and properties of every class in
    # the package: matched by name, so a read of any attribute of that name
    # counts, and reads inside the method itself do not.
    readers = _readers()
    uncalled = set()
    for path in _SOURCES:
        with open(path) as f:
            tree = ast.parse(f.read())
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    if not _read_outside(readers, node.name, os.path.abspath(path),
                                         (cls.name, node.name)):
                        uncalled.add(f"{cls.name}.{node.name}")
    kept = set(_KEPT_UNCALLED_METHODS)
    assert sorted(uncalled - kept) == [], "public, but only tests call these"
    assert sorted(kept - uncalled) == [], "kept as uncalled, but now called"


def test_no_assert_statement():
    # ``python -O`` strips asserts, so no invariant of the package may rest on one.
    found = []
    for path in [qirb.__file__, *_SOURCES]:
        with open(path) as f:
            found += [(os.path.basename(path), node.lineno)
                      for node in ast.walk(ast.parse(f.read())) if isinstance(node, ast.Assert)]
    assert found == []
