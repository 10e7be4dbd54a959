"""The library has zero runtime dependencies: every import in
src/preliecoh is relative or from the standard library, and nothing
comes from the tests or the benchmark harness.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "preliecoh"
MODULES = sorted(SRC.glob("*.py"))


def _imports(path: Path):
    """(relative level, module name) of every import statement in path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module or ""


def test_the_library_modules_are_found():
    assert SRC / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_relative_or_standard_library(path):
    for level, module in _imports(path):
        top = module.split(".")[0]
        assert top not in ("tests", "bench"), (path.name, module)
        assert level > 0 or top in sys.stdlib_module_names, (path.name, module)


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import in path that nothing else in it reads.
    A name read only inside a quoted annotation counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    quoted = [
        ast.parse(c.value, mode="eval")
        for a in annotations
        for c in ast.walk(a)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    read = {n.id for t in (tree, *quoted) for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


def _names(path: Path) -> set[str]:
    """Every identifier, attribute and imported name that path mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


# the package re-exports the reference formulas as public names
@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ("cochain.py", "__init__.py")], ids=lambda p: p.name)
def test_only_cochain_names_the_reference_coboundaries(path):
    # closedness and classes are decided on the complex's matrices;
    # `coboundary` and `lie_coboundary` are references for the tests
    assert _names(path) & {"coboundary", "lie_coboundary"} == set()
