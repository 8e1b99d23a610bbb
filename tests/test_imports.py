"""Every module-level import in src/fedsim is used, or re-exported through __all__."""

import ast
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
