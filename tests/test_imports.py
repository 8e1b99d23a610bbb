"""Every module-level import in src/fedsim is used, or re-exported through __all__,
and is relative, numpy or the standard library: fedsim depends on numpy alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedsim"


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads or exports."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_unused_imports_finds_the_unread_names():
    source = "import os\nimport numpy as np\nfrom typing import List, Optional\nx: List[int] = []\n"
    assert unused_imports(source) == ["Optional", "np", "os"]
    assert unused_imports(source + "__all__ = ['os', 'np', 'Optional']\n") == []


def test_every_module_import_is_used_or_exported():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    unused = {path.name: unused_imports(path.read_text()) for path in paths}
    assert {name: names for name, names in unused.items() if names} == {}


def foreign_imports(source: str) -> list:
    """Top-level packages that module-level imports name, other than numpy and the stdlib."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - {"numpy"} - sys.stdlib_module_names)


def test_foreign_imports_finds_the_third_party_packages():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy.linalg as la\n"
              "from . import model\nfrom .errors import ShapeError\nimport scipy.spatial\n"
              "from scipy.spatial.distance import cdist\nfrom sklearn import cluster\n")
    assert foreign_imports(source) == ["scipy", "sklearn"]


def test_every_module_import_is_relative_numpy_or_stdlib():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10
    foreign = {path.name: foreign_imports(path.read_text()) for path in paths}
    assert {name: names for name, names in foreign.items() if names} == {}
