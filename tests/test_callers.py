"""Every public function and method in `src/` has a caller in `src/`, and
every field of a record class (a dataclass or NamedTuple) has a reader.

A name that only tests read belongs in `tests/` (an oracle goes to
`tests/reference.py`, a paper equation no command runs to `tests/paper.py`),
so the package holds what the program runs. A
function counts as called when its name appears in `src/` outside its own
definition, as a name or an attribute; a method only as an attribute. A
field counts as read when `src/` reads an attribute of its name. The match
is by name alone, so `Series.values` passes through `dict.values()`. The
exceptions are listed below, each with its reason, and each list must name
exactly the uncalled functions or the classes with an unread field, so it
cannot go stale."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bimonetary"

UNCALLED = {
    "equilibrium.nelder_mead_1d": "oracle of the closed form; bench/tracer.py wraps it",
    "scenarios.dual_model_compare": "the paper's domestic-vs-enriched comparison",
}


#: Record classes whose fields are read whole, not one attribute at a time.
READ_WHOLE = {
    "structural.ProxyMap": "read by getattr with the names in structural._EQUATIONS",
    "structural.StructuralCoefficients": (
        "read by getattr with the names in _EQUATIONS; written by asdict"
    ),
    "category.PathPairCheck": "written to commutation.json by asdict",
    "category.FunctorLawCheck": "written to commutation.json by asdict",
    "category.EconObject": "read and written by typed_json",
    "equilibrium.NelderMeadResult": "read by bench/tracer.py",
}


def public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of each public module-level function and
    each public method of a module-level (or nested) class."""

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    yield prefix + child.name, child
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")

    yield from visit(tree, "")


def references(tree: ast.Module):
    """``(name, line, is_attribute)`` of every name and attribute read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def uncalled() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text("utf-8")) for p in PACKAGE.glob("*.py")}
    refs = {module: list(references(tree)) for module, tree in trees.items()}
    found = set()
    for module, tree in trees.items():
        for qualname, node in public_definitions(tree):
            name, method = node.name, "." in qualname
            called = any(
                ref == name
                and (attribute or not method)
                and not (where == module and node.lineno <= line <= node.end_lineno)
                for where, module_refs in refs.items()
                for ref, line, attribute in module_refs
            )
            if not called:
                found.add(f"{module}.{qualname}")
    return found


def record_classes(tree: ast.Module):
    """Every class in the module that is a dataclass or a NamedTuple."""

    def is_record(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            f = decorator.func if isinstance(decorator, ast.Call) else decorator
            if getattr(f, "id", getattr(f, "attr", None)) == "dataclass":
                return True
        return any(getattr(base, "id", None) == "NamedTuple" for base in node.bases)

    return [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and is_record(n)]


def unread_fields() -> set[str]:
    """``module.Class.field`` of each field no attribute read in `src/` names."""
    trees = {p.stem: ast.parse(p.read_text("utf-8")) for p in PACKAGE.glob("*.py")}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {
        f"{module}.{cls.name}.{item.target.id}"
        for module, tree in trees.items()
        for cls in record_classes(tree)
        for item in cls.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and item.target.id not in read
    }


def test_every_public_function_has_a_caller_in_the_program():
    assert sorted(uncalled() - UNCALLED.keys()) == []


def test_every_listed_exception_is_defined_and_uncalled():
    assert sorted(UNCALLED.keys() - uncalled()) == []


def test_every_record_field_has_a_reader_in_the_program():
    unread = {f for f in unread_fields() if f.rpartition(".")[0] not in READ_WHOLE}
    assert sorted(unread) == []


def test_every_class_read_whole_has_an_unread_field():
    owners = {f.rpartition(".")[0] for f in unread_fields()}
    assert sorted(READ_WHOLE.keys() - owners) == []
