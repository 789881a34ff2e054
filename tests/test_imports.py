"""Every imported name is used, every private name of the package is
mentioned, and a broad poset and a monotone map each skip their
constructor in one place only: scans of the source with ``ast`` and text
search.  Every name the README cites in backticks, module-qualified or
bare and private, is defined.

Package ``__init__`` modules re-export what they import, and ``from
__future__`` imports are directives, so both are exempt.  The benchmark's
scripts in ``perfbench/`` are scanned too; like every file here they are
read as text, never imported.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import dendro

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in [ROOT / "src" / "dendro", ROOT / "tests", ROOT / "perfbench"]
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)
PACKAGE = sorted((ROOT / "src" / "dendro").glob("*.py"))


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


def unmentioned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names ``_x`` that no line outside their own definition
    mentions, so a private function that only calls itself is found too."""
    lines = [
        (name, number, line)
        for name, text in sources.items()
        for number, line in enumerate(text.splitlines(), 1)
    ]
    found = []
    for name, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            for private in defined:
                if not private.startswith("_") or private.endswith("__"):
                    continue
                mention = re.compile(rf"\b{re.escape(private)}\b")
                if not any(
                    mention.search(line)
                    for where, number, line in lines
                    if where != name or not node.lineno <= number <= node.end_lineno
                ):
                    found.append(f"{name}:{node.lineno}: {private}")
    return found


def test_the_scan_finds_an_unmentioned_private_name():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _unused():\n    return _unused()\n",
        "b.py": "from a import _used\n__all__ = []\n_TABLE: dict = {}\n",
    }
    assert unmentioned_private_names(sources) == ["a.py:5: _unused", "b.py:3: _TABLE"]


def test_every_private_name_is_mentioned():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unmentioned_private_names(sources) == []


def bare_constructions(sources: dict[str, str], cls: str) -> list[str]:
    """Where ``cls`` is built by a ``__new__`` call, which runs none of its
    checks: each as its file and the module-level name around the call."""
    found = []
    for name, text in sources.items():
        for node in ast.parse(text).body:
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "__new__"
                    and call.args
                    and ast.unparse(call.args[0]) == cls
                ):
                    found.append(f"{name}: {getattr(node, 'name', node.lineno)}")
    return found


def test_the_scan_finds_a_bare_construction():
    sources = {
        "a.py": "def _make():\n    return object.__new__(Thing)\n",
        "b.py": "x = Thing.__new__(Thing)\ny = object.__new__(Other)\nz = Thing(1)\n",
    }
    assert bare_constructions(sources, "Thing") == ["a.py: _make", "b.py: 1"]


def test_only_a_cut_tree_skips_the_per_pair_check():
    """A broad poset is built past its constructor in one place, the poset
    that holds its relation in another form.  A tree holds its vertex map,
    which is checked vertex by vertex when it is written and needs no
    check when it is cut out of a tree.  The closure kernel, ``product``,
    ``forget_symmetry`` and ``internal_hom`` hold letter pairs that join
    only letters of inputs already checked.  So no data from outside can
    take it."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert bare_constructions(sources, "BroadPoset") == ["core.py: _held"]


def test_only_an_inclusion_skips_the_map_check():
    """A monotone map is built past its constructor in one place, the
    inclusion of a sub broad poset whose flavour is its ambient's and whose
    carrier lies in the ambient's: its identity pairs, sorted once, pass
    every check the constructor makes, and any other inclusion goes
    through the constructor."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert bare_constructions(sources, "MonotoneMap") == ["structure.py: inclusion"]


def unresolved_readme_names(text: str) -> list[str]:
    """The names set in backticks, module-qualified (``core._closure``,
    ``dendro.cli``, ``BroadPoset.build``) or bare and private
    (``_maxima_map``, in any module), that the package does not define."""
    modules = {path.stem: importlib.import_module(f"dendro.{path.stem}") for path in PACKAGE if path.stem != "__init__"}
    missing = []
    for name in sorted(set(re.findall(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*|_\w+)`", text))):
        path = name.removeprefix("dendro.").split(".")
        if path[0] in modules:
            owners = [modules[path.pop(0)]]
        else:
            owners = [dendro] if len(path) > 1 else list(modules.values())
        for owner in owners:
            for part in path:
                owner = getattr(owner, part, None)
            if owner is not None:
                break
        else:
            missing.append(name)
    return missing


def test_the_scan_finds_a_stale_readme_name():
    text = "`core._gone`, `_nothing`, `core.SEARCH_AT_MOST`, `dendro.cli`, `_maxima_map`, `FaceKind.sort_key`"
    assert unresolved_readme_names(text) == ["_nothing", "core._gone"]


def test_every_name_the_readme_cites_is_defined():
    assert unresolved_readme_names((ROOT / "README.md").read_text(encoding="utf-8")) == []
