"""Every public function and class has a caller in the package or the benchmark.

A name that only tests reach is surface every later change must carry; this
test finds it by parsing ``src/cdanneal/*.py`` and ``benchmarks/*.py``.
"""

import ast
import inspect
from pathlib import Path

import cdanneal

ROOT = Path(__file__).resolve().parents[1]

#: Public names kept without a caller, each for a stated reason.
#: ``is_stoquastic``: the tests use it to check that the CD terms are
#: non-stoquastic, which is the paper's premise.
UNCALLED = {"is_stoquastic"}


def _references(tree: ast.AST) -> set[str]:
    """Names and attributes used outside the def or class that binds them."""
    found: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_public_functions_and_classes_have_callers():
    paths = sorted((ROOT / "src" / "cdanneal").glob("*.py")) + sorted(
        (ROOT / "benchmarks").glob("*.py")
    )
    referenced = set().union(*(_references(ast.parse(p.read_text())) for p in paths))
    public = set()
    for name in cdanneal.__all__:
        value = getattr(cdanneal, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            public.add(name)
    assert public - UNCALLED - referenced == set()
    assert UNCALLED <= public
