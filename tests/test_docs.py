"""The shipped configs load and README's example commands parse."""

import shlex
from pathlib import Path

import pytest

from fedsim.cli import build_parser
from fedsim.config import load_config

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
def test_shipped_config_loads(path):
    load_config(path)


def readme_commands():
    """argv of every `fedsim ...` line in README's "Run experiments" block, `\\` lines joined."""
    block = (ROOT / "README.md").read_text().split("## Run experiments", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fedsim ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 5 and CONFIGS
    for argv in commands:
        args = build_parser().parse_args(argv)  # parsed only: nothing runs
        assert getattr(args, "config", None) is None or (ROOT / args.config) in CONFIGS
