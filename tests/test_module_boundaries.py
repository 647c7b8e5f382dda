"""Each module of the package uses only the public names of the others."""

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
