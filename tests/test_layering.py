"""Module layering: top-level imports only, in one fixed module order."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lekit"

# Each module may import only modules of a lower rank.
RANK = {
    "errors": 0,
    "bitset": 0,
    "emit": 1,
    "syntax": 1,
    "polarity": 2,
    "frame": 3,
    "semantics": 4,
    "fol": 4,
    "algebra": 4,
    "constructions": 5,
    "morphism": 6,
    "sampling": 7,
    "definability": 8,
    "cli": 9,
    "__main__": 10,
}

MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
CODE_BUILTINS = {"exec", "eval", "compile"}


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def test_every_module_has_a_rank():
    assert set(MODULES) == set(RANK)


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_at_module_level(name):
    tree = _tree(name)
    top = {id(node) for node in tree.body}
    nested = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert not nested, f"{name}.py has function-local imports: {nested}"


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_earlier_modules(name):
    later = [
        node.module
        for node in _tree(name).body
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and node.module is not None  # `from . import __version__`
        and RANK[node.module] >= RANK[name]
    ]
    assert not later, f"{name}.py imports modules at or above its rank: {later}"


def _code_builtin_users(tree, module):
    """(module, innermost enclosing function) of each use of exec/eval/compile."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Name) and node.id in CODE_BUILTINS:
            found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_the_emitter_compiles_code():
    users = set()
    for path in SRC.glob("*.py"):
        users |= _code_builtin_users(_tree(path.stem), path.stem)
    assert users == {("emit", "compiled")}, users
