"""Every library module uses each name it imports (``__init__`` re-exports);
every module-level private function is referenced outside its own
definition: in its module, by another module or by the tests; and every
module-level public function and class is referenced outside its own
definition by library code: in its module, by another module or by
``__init__``, so code only the tests call lives with the tests."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fresnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = SRC.parent.parent / "tests"


def imported_names(tree):
    """(bound name, line) of every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c, d as e\nimport x.y\nx.y.z(c)\n")
    assert [n for n, _ in imported_names(tree) if n not in used_names(tree)] == ["os", "e"]


def private_functions(tree):
    """(name, node) of every module-level function whose name starts with
    one underscore."""
    return [(node.name, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def public_definitions(tree):
    """(name, node) of every module-level function and class whose name
    does not start with an underscore."""
    return [(node.name, node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_outside(tree, skip):
    """Every name the tree uses outside the subtree ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            if isinstance(node, ast.Name):
                found.add(node.id)
            stack.extend(ast.iter_child_nodes(node))
    return found


def references_into(tree, module):
    """Names the tree takes from the library module ``module`` by
    ``from .module import _x`` (or ``from fresnet.module``) or as
    ``module._x`` (or ``fresnet.module._x``)."""
    paths = (module, f"fresnet.{module}")
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in paths:
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in paths:
            found.add(node.attr)
    return found


def unreferenced(modules, definitions, tests=()):
    """{module: [name, ...]} of the ``definitions(tree)`` in ``modules``
    (module name -> tree) that neither the modules nor ``tests`` reference,
    matched per module: a name another module defines too does not count."""
    dead = {}
    for module, tree in modules.items():
        outside = [t for other, t in modules.items() if other != module] + list(tests)
        foreign = set().union(*(references_into(t, module) for t in outside))
        names = [name for name, node in definitions(tree)
                 if name not in foreign and name not in names_outside(tree, node)]
        if names:
            dead[module] = names
    return dead


def library_modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def test_every_private_function_is_referenced():
    tests = [ast.parse(p.read_text(encoding="utf-8")) for p in TESTS.glob("*.py")]
    assert unreferenced(library_modules(), private_functions, tests) == {}


def test_every_public_name_is_used_by_the_library():
    # jets.sin is the custom-target API (README), beside the cos and exp
    # the registered targets use
    assert unreferenced(library_modules(), public_definitions) == {"jets": ["sin"]}


def test_scan_sees_an_unreferenced_private_function():
    modules = {
        "a": ast.parse(
            "def _used(): pass\n"
            "def _dead(): pass\n"
            "def _recursive(): return _recursive()\n"
            "def _fmt(): pass\n"
            "def _by_b(): pass\n"
            "def _by_test(): pass\n"
            "def _by_dotted_test(): pass\n"
            "x = _used()\n"
        ),
        "b": ast.parse("from .a import _by_b\ndef _fmt(): pass\ny = _fmt()\n"),
    }
    tests = [ast.parse("import fresnet.a\nfrom fresnet import a\n"
                       "a._by_test()\nfresnet.a._by_dotted_test()\n")]
    assert unreferenced(modules, private_functions, tests) == {
        "a": ["_dead", "_recursive", "_fmt"]}


def test_scan_sees_a_public_name_only_the_tests_use():
    modules = {
        "a": ast.parse(
            "class Used: pass\n"
            "class ByTest: pass\n"
            "def helper(): return Used()\n"
            "def by_b(): pass\n"
            "def by_init(): pass\n"
            "def recursive(): return recursive()\n"
            "def _private(): pass\n"
        ),
        "b": ast.parse("from . import a\nz = a.by_b\n"),
        "__init__": ast.parse("from .a import by_init\n"),
    }
    tests = [ast.parse("from fresnet.a import ByTest, helper, recursive\n")]
    # references from the tests count only where they are asked to
    assert unreferenced(modules, public_definitions, tests) == {}
    assert unreferenced(modules, public_definitions) == {"a": ["ByTest", "helper", "recursive"]}
