"""Every public function, class and method has a caller in the package or the
benchmark, and every defaulted parameter of one has a caller that sets it.

A name or option that only tests reach is surface every later change must
carry; these tests find it by parsing ``src/cdanneal/*.py`` and
``benchmarks/*.py``.
"""

import ast
import functools
import inspect
from pathlib import Path

import cdanneal

ROOT = Path(__file__).resolve().parents[1]

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


def _referenced() -> set[str]:
    """Every name and attribute the package and the benchmark use."""
    paths = sorted((ROOT / "src" / "cdanneal").glob("*.py")) + sorted(
        (ROOT / "benchmarks").glob("*.py")
    )
    return set().union(*(_references(ast.parse(p.read_text())) for p in paths))


def test_public_functions_and_classes_have_callers():
    referenced = _referenced()
    public = set()
    for name in cdanneal.__all__:
        value = getattr(cdanneal, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            public.add(name)
    assert public - referenced == set()


#: Classes whose methods may lack a caller: the general Pauli algebra stays
#: as the tests' reference for the fast paths, conveniences included.
REFERENCE_ALGEBRA = {"PauliString", "PauliSum"}


def test_public_methods_have_callers():
    # Methods, properties and class or static methods a public class defines.
    referenced = _referenced()
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    uncalled = set()
    for name in set(cdanneal.__all__) - REFERENCE_ALGEBRA:
        value = getattr(cdanneal, name)
        if not inspect.isclass(value):
            continue
        for attr, member in vars(value).items():
            method = inspect.isfunction(member) or isinstance(member, kinds)
            if method and not attr.startswith("_") and attr not in referenced:
                uncalled.add(f"{name}.{attr}")
    assert uncalled == set()


#: Defaulted parameters kept without a caller that sets them, each for a
#: stated reason.  ``main(argv)``: the console script calls ``main()`` and
#: the tests pass ``argv``.
UNSET = {("main", "argv")}


def _defaulted(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, positional index or None) of each default.

    Covers public module-level functions and the public methods of public
    classes; a class's ``__init__`` is called by the class name.  A bound
    method's positional index counts from the argument after ``self``/``cls``.
    """
    found = []

    def collect(func: ast.FunctionDef, callee: str, bound: bool) -> None:
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index in range(first, len(positional)):
            found.append((callee, positional[index].arg, index - bound))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((callee, arg.arg, None))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            collect(node, node.name, bound=False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                if item.name == "__init__":
                    collect(item, node.name, bound=True)
                elif not item.name.startswith("_"):
                    collect(item, item.name, bound=not static)
    return found


def _calls(trees) -> tuple[set[tuple[str, str]], dict[str, int]]:
    """Keywords passed to each callee name, and its most positional arguments."""
    keywords: set[tuple[str, str]] = set()
    positional: dict[str, int] = {}
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            keywords.update((name, kw.arg) for kw in node.keywords)
            positional[name] = max(positional.get(name, 0), len(node.args))
    return keywords, positional


def test_defaulted_parameters_have_setters():
    # Every defaulted parameter of the package is set by some call in the
    # package or the benchmark, by keyword or positionally.
    sources = {p: ast.parse(p.read_text()) for p in (ROOT / "src" / "cdanneal").glob("*.py")}
    benchmarks = [ast.parse(p.read_text()) for p in (ROOT / "benchmarks").glob("*.py")]
    keywords, positional = _calls([*sources.values(), *benchmarks])
    unset = {
        (callee, param)
        for tree in sources.values()
        for callee, param, index in _defaulted(tree)
        if (callee, param) not in keywords
        and (index is None or positional.get(callee, 0) <= index)
    }
    assert sorted(unset - UNSET) == []
    assert UNSET <= unset
