"""The demos and the public API agree, checked without running the demos."""

import ast
from pathlib import Path

import pytest

import kestenlab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_public(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "kestenlab"
        for alias in node.names
    ]
    assert imported, f"{demo.name} imports nothing from kestenlab"
    assert sorted(set(imported) - set(kestenlab.__all__)) == []


def test_every_public_name_resolves():
    assert len(set(kestenlab.__all__)) == len(kestenlab.__all__)
    missing = [name for name in kestenlab.__all__ if not hasattr(kestenlab, name)]
    assert missing == []
