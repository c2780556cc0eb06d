"""`src/` imports nothing from outside the standard library but numpy.

scipy is installed for the oracle tests, so a stray `import scipy` in the
program would pass every other test and fail only where scipy is absent."""

import ast
import os
import subprocess
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


def package_modules(source: str) -> set[str]:
    """The `bimonetary` modules that ``source`` imports, relatively or by
    absolute name; ``from . import x`` names the module ``x``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            base = node.module or ""
            paths = [f"bimonetary.{base or alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        names.update(
            path.split(".")[1] for path in paths if path.startswith("bimonetary.")
        )
    return names


def test_estimators_import_only_the_estimators_and_errors():
    """The estimators stay array-in, array-out: no panel, file or CLI code
    behind them."""
    allowed = {"_dist", "_regression", "errors"}
    for name in ("econometrics", "_regression", "_dist"):
        imported = package_modules((PACKAGE / f"{name}.py").read_text("utf-8"))
        assert imported <= allowed, (name, sorted(imported - allowed))


def test_cli_loads_category_only_for_functor_check():
    """Every command but `functor-check` starts without the category
    module's dataclasses."""
    code = "import sys, bimonetary.cli; print('bimonetary.category' in sys.modules)"
    src = str(PACKAGE.parent)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"
