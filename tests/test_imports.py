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
