"""Every library module uses each name it imports (``__init__`` re-exports),
and every module-level private function is referenced outside its own
definition: in its module, by another module or by the tests."""

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


def unreferenced_private_functions(modules, tests):
    """{module: [name, ...]} of the private functions in ``modules`` (module
    name -> tree) that nothing references, matched per module: a function
    another module defines under the same name does not count."""
    dead = {}
    for module, tree in modules.items():
        outside = [t for other, t in modules.items() if other != module] + tests
        foreign = set().union(*(references_into(t, module) for t in outside))
        names = [name for name, node in private_functions(tree)
                 if name not in foreign and name not in names_outside(tree, node)]
        if names:
            dead[module] = names
    return dead


def test_every_private_function_is_referenced():
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    tests = [ast.parse(p.read_text(encoding="utf-8")) for p in TESTS.glob("*.py")]
    assert unreferenced_private_functions(modules, tests) == {}


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
    assert unreferenced_private_functions(modules, tests) == {"a": ["_dead", "_recursive", "_fmt"]}
