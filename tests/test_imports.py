"""Every imported name is used: a scan of the source with ``ast``.

Package ``__init__`` modules re-export what they import, and ``from
__future__`` imports are directives, so both are exempt.  The benchmark's
scripts in ``perfbench/`` are scanned too; like every file here they are
read as text, never imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in [ROOT / "src" / "dendro", ROOT / "tests", ROOT / "perfbench"]
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names inside quoted annotations
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom typing import Any, Mapping\n\nx: 'Mapping[str, int]' = {}\n"
    assert unused_imports(source) == ["line 2: Any", "line 1: os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
