"""`src/` imports nothing from outside the standard library but numpy.

scipy is installed for the oracle tests, so a stray `import scipy` in the
program would pass every other test and fail only where scipy is absent."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bimonetary"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "bimonetary"}


def top_modules(source: str) -> set[str]:
    """The top-level module of every absolute import in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_program_imports_only_the_standard_library_and_numpy():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = {p.name: top_modules(p.read_text("utf-8")) - ALLOWED for p in files}
    assert {name: mods for name, mods in outside.items() if mods} == {}
