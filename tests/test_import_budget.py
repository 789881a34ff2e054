"""What a ``dendro`` process imports: each child runs under ``python -X
importtime``, and the modules it adds to a ``python -c pass`` child's,
which counts what ``site`` and its ``.pth`` files load, are compared
with what its command needs.  No command loads ``dataclasses`` or
``inspect``, the commands on serialized posets load ``core`` alone, and
``import dendro`` loads no submodule until a name is read.
"""

import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from dendro.core import corolla, identity, star

SRC = Path(__file__).resolve().parent.parent / "src"
LIBRARY = {"dendro.core", "dendro.errors", "dendro.structure", "dendro.terms", "dendro.category"}


def imports(*args: str, cwd: Path | None = None) -> set[str]:
    """The modules a ``python -X importtime`` child with the given
    arguments imports, after checking that it exits 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=60
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split("|")[-1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")]
    return set(rows[1:])  # the first row is the header


@cache
def baseline() -> frozenset[str]:
    return frozenset(imports("-c", "pass"))


def added(*args: str, cwd: Path | None = None) -> set[str]:
    return imports(*args, cwd=cwd) - baseline()


def test_the_report_names_what_a_child_imports():
    """Modules the package namespace loads on a read are reported too."""
    assert added("-c", "import dendro.core") & LIBRARY == {"dendro.errors", "dendro.core"}
    assert LIBRARY - {"dendro.category"} <= added("-c", "import dendro; dendro.tensor, dendro.terms")


@pytest.fixture
def requests(tmp_path) -> dict[str, list[str]]:
    """One small request per command, the files it reads in ``tmp_path``."""
    files = {
        "left.json": star("x").to_json(),
        "right.json": corolla(2).to_json(),
        "f.json": identity(star("x")).to_json(),
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    return {
        "check": ["check", "r(a,b)"],
        "info": ["info", "r(b(e,f),c,d())"],
        "subtrees": ["subtrees", "r(a,b)"],
        "faces": ["faces", "r(a,b(c))"],
        "degeneracies": ["degeneracies", "a(b(c))"],
        "hom": ["hom", "x", "r(a,b)"],
        "factor": ["factor", "r(a)", "s(p,q)", "--map", "a=>s,r=>s"],
        "graft": ["graft", "r(a,b)", "--at", "a", "m(k)"],
        "tensor": ["tensor", "left.json", "right.json"],
        "product": ["product", "left.json", "right.json"],
        "pushout": ["pushout", "f.json", "f.json"],
        "dot": ["dot", "r(a,d())"],
    }


def test_no_command_imports_dataclasses_or_inspect(requests, tmp_path):
    for command, argv in requests.items():
        found = added("-m", "dendro.cli", *argv, cwd=tmp_path)
        assert "dendro.core" in found, command
        assert not {"dataclasses", "inspect"} & found, command


@pytest.mark.parametrize("command", ["tensor", "product", "pushout"])
def test_commands_on_serialized_posets_import_core_alone(requests, tmp_path, command):
    found = added("-m", "dendro.cli", *requests[command], cwd=tmp_path)
    assert found & LIBRARY == {"dendro.core", "dendro.errors"}


@pytest.mark.parametrize("command", ["check", "info", "hom", "graft", "dot"])
def test_commands_that_take_no_face_import_no_category(requests, tmp_path, command):
    found = added("-m", "dendro.cli", *requests[command], cwd=tmp_path)
    assert "dendro.structure" in found and "dendro.category" not in found


def test_import_dendro_loads_no_submodule_until_a_name_is_read():
    assert added("-c", "import dendro") & (LIBRARY | {"dendro"}) == {"dendro"}
    code = (
        "import dendro\n"
        "assert dendro.tensor is dendro.core.tensor and dendro.errors.DendroError\n"
        "names = {}\n"
        "exec('from dendro import *', names)\n"
        "assert sorted(n for n in names if not n.startswith('_')) == dendro.__all__\n"
        "assert [n for n in dir(dendro) if not n.startswith('_')] == dendro.__all__\n"
        "assert len(dendro.__all__) == 77\n"
    )
    assert LIBRARY <= added("-c", code)
