"""The demos and the public API agree, and each demo runs to its end."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kestenlab

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


def _public_imports(source: str, filename: str) -> list[str]:
    """Names the Python source imports with ``from kestenlab import``."""
    tree = ast.parse(source, filename=filename)
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "kestenlab"
        for alias in node.names
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_public(demo):
    imported = _public_imports(demo.read_text(), str(demo))
    assert imported, f"{demo.name} imports nothing from kestenlab"
    assert sorted(set(imported) - set(kestenlab.__all__)) == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter on the source tree, in a directory of its own
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_readme_imports_are_public():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    imported = [name for block in blocks for name in _public_imports(block, "README.md")]
    assert imported, "the README's Python blocks import nothing from kestenlab"
    assert sorted(set(imported) - set(kestenlab.__all__)) == []


def test_every_public_name_resolves():
    assert len(set(kestenlab.__all__)) == len(kestenlab.__all__)
    missing = [name for name in kestenlab.__all__ if not hasattr(kestenlab, name)]
    assert missing == []
