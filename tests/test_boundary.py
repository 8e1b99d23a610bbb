"""SimConfig is the one value check: no module below it raises ConfigError.

The layers under the config assume a valid SimConfig and check only array
shapes (ShapeError) and training failures (TrainingError). The single
exception is the attackers' pool size, which depends on the partition and
so can only be checked once the data exists.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedsim"

BOUNDARY = {"config.py", "cli.py"}
SETUP_CHECKS = {("harness.py", "_build_attack_pools")}


def config_error_raises(source: str) -> list:
    """Dotted name of the enclosing function or class of each `raise ConfigError`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                if name == "ConfigError":
                    found.append(".".join(scope) or "<module>")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return found


def test_config_error_raises_finds_every_raise():
    source = (
        "from . import errors\n"
        "from .errors import ConfigError\n"
        "def check(x):\n"
        "    if x < 0:\n"
        "        raise ConfigError(f'x={x}')\n"
        "class Ledger:\n"
        "    def __post_init__(self):\n"
        "        raise errors.ConfigError\n"
        "def shapes():\n"
        "    raise ValueError('not a config error')\n"
        "raise ConfigError('at import')\n"
    )
    assert config_error_raises(source) == ["check", "Ledger.__post_init__", "<module>"]


def test_only_the_config_boundary_raises_config_error():
    raises = {(path.name, where)
              for path in sorted(SRC.glob("*.py"))
              for where in config_error_raises(path.read_text())}
    assert {name for name, _ in raises} >= BOUNDARY
    assert {(name, where) for name, where in raises if name not in BOUNDARY} == SETUP_CHECKS
