"""Each module of the package uses only the public names of the others, and
JSON text and type annotations are each read in one place."""

import ast
from pathlib import Path

import kestenlab

SRC = Path(kestenlab.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """``module.name`` for each ``_``-prefixed, non-dunder name ``path`` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("kestenlab"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{node.module or '.'}.{name}")
    return found


def test_no_module_imports_another_modules_private_name():
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := _private_imports(path))
    }
    assert found == {}


def _callers(names: set[str]) -> list[str]:
    """``module.function`` around each call of a function spelled as one of ``names``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) in names:
                found.append(where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if named else where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_one_function_parses_json():
    # so every JSON text the package reads has its decode errors mapped in one place
    assert _callers({"json.loads", "json.load"}) == ["cli._load_json"]


def test_only_the_record_reader_resolves_annotations():
    assert _callers({"typing.get_type_hints", "get_type_hints"}) == ["distributions.read_record"]
