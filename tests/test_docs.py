"""The shipped configs load, README's example commands parse, and README's settings name
config fields."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from fedsim.cli import build_parser
from fedsim.config import SimConfig, load_config

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


def readme_setting_names():
    """The key of every `--override NAME=` in README, and of every backticked span outside
    code blocks that is only `name=value` settings."""
    text = (ROOT / "README.md").read_text()
    names = re.findall(r"--override[ =](\w+)=", text)
    for span in re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
        settings = span.split()
        if all(re.fullmatch(r"\w+=\S*", s) for s in settings):
            names += [s.split("=", 1)[0] for s in settings]
    return names


def test_readme_settings_name_config_fields():
    names = readme_setting_names()
    assert {"aggregator", "seed", "hidden_dims", "attack"} <= set(names)
    # `key` is the placeholder of `--override key=value`
    assert set(names) - {"key"} <= {f.name for f in fields(SimConfig)}
