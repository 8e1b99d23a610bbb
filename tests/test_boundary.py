"""SimConfig is the one value check: no module below it raises ConfigError.

The layers under the config assume a valid SimConfig. Two value checks
depend on the partition and so can only be made once the data exists: a
client that holds no records, and the attackers' pool size. Arrays are
checked only where they are built: a `LabeledDataset`, a `ModelParams` and
each `sgd_train` stack raise ShapeError, and so does `class_indicator` for a
non-finite block of client-sent values. Every other kernel takes the round's
arrays as built. Training fails with a TrainingError in three places only:
`sgd_train` on an empty stack, the round loop's `_finite_rows`, which names
the client of the first row that is not finite, and the fltrust server's
update, which names its round.

Every choice string that the code compares with a choice field is one of
that field's declared `Literal` choices, so a misspelt choice cannot name a
branch that no config reaches.

The same AST walk holds plain SGD to one trainer: only `model.sgd_train`
cuts batches, takes gradients and takes steps, the alternate family's epochs
included, and it checks each call's stack once, so the kernels it calls raise
nothing. Only `_Clients._train` dispatches to an attack. The round loop
also owns each attacker's training data: only it and the config read
`poison_count`, and the attacks take poisoned sets, never a pool. It also keeps
aggregation on plain arrays: only the model, the attacks and the round loop
name `ModelParams`, so trust, the baselines, clustering and inference take
and return ndarrays.
"""

import ast
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest

from fedsim.config import SimConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "fedsim"

BOUNDARY = {"config.py", "cli.py"}
SETUP_CHECKS = {("harness.py", "run_experiment"), ("harness.py", "_build_attack_pools")}


def raise_sites(source: str, name: str) -> list:
    """Dotted name of the enclosing function or class of each `raise <name>`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                raised = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                if raised == name:
                    found.append(".".join(scope) or "<module>")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return found


def test_raise_sites_finds_every_raise():
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
        "def built(x):\n"
        "    raise errors.ShapeError(x)\n"
    )
    assert raise_sites(source, "ConfigError") == ["check", "Ledger.__post_init__", "<module>"]
    assert raise_sites(source, "ShapeError") == ["built"]
    assert raise_sites(source, "ValueError") == ["shapes"]


def test_only_the_config_boundary_raises_config_error():
    raises = {(path.name, where)
              for path in sorted(SRC.glob("*.py"))
              for where in raise_sites(path.read_text(), "ConfigError")}
    assert {name for name, _ in raises} >= BOUNDARY
    assert {(name, where) for name, where in raises if name not in BOUNDARY} == SETUP_CHECKS


# where arrays are built: a dataset, a model, a training stack, and the indicator
# block read from client-sent values, which must be finite
SHAPE_CHECKS = {
    ("data.py", "LabeledDataset.__post_init__"),
    ("model.py", "ModelParams.__post_init__"),
    ("model.py", "sgd_train"),
    ("inference.py", "class_indicator"),
}


def test_only_where_arrays_are_built_raises_shape_error():
    raises = {(path.name, where)
              for path in sorted(SRC.glob("*.py"))
              for where in raise_sites(path.read_text(), "ShapeError")}
    assert raises == SHAPE_CHECKS


# the one caller of each training kernel
TRAINER_CALLS = {name: {("model.py", "sgd_train")} for name in ("loss_and_grad", "epoch_batches")}


def callers(source: str, name: str) -> list:
    """Dotted name of the enclosing function or class of each call to `name`, bare or dotted."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append(".".join(scope) or "<module>")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(source), [])
    return found


def test_callers_finds_every_call():
    source = (
        "from . import model\n"
        "from .model import sgd_step\n"
        "def train(p):\n"
        "    for _ in range(2):\n"
        "        sgd_step(p, model.sgd_step(p))\n"
        "class Attack:\n"
        "    def run(self):\n"
        "        return [sgd_step(q) for q in self.qs]\n"
        "step = sgd_step\n"
        "def other():\n"
        "    return sgd_steps()\n"
        "sgd_step(0)\n"
    )
    assert callers(source, "sgd_step") == ["train", "train", "Attack.run", "<module>"]


@pytest.mark.parametrize("name", sorted(TRAINER_CALLS))
def test_only_the_trainer_batches_steps_and_takes_gradients(name):
    calls = {(path.name, where)
             for path in sorted(SRC.glob("*.py"))
             for where in callers(path.read_text(), name)}
    assert calls == TRAINER_CALLS[name]


def raisers(source: str) -> list:
    """Name of each module-level function that holds a `raise`, nested functions included."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(inner, ast.Raise) for inner in ast.walk(node))]


def test_raisers_finds_every_raising_function():
    source = (
        "def kernel(x):\n"
        "    return x + 1\n"
        "def checked(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(x)\n"
        "    return x\n"
        "def nested(x):\n"
        "    def inner():\n"
        "        raise\n"
        "    return inner\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        raise TypeError\n"
        "def says_raise():\n"
        "    return 'raise'\n"
    )
    assert raisers(source) == ["checked", "nested"]


def test_the_training_kernels_raise_nothing():
    # sgd_train checks each call's stack once, before its first step, so no check creeps
    # back into the kernels it calls on every step
    source = (SRC / "model.py").read_text()
    defined = [node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]
    assert set(TRAINER_CALLS) <= set(defined)
    assert "sgd_train" in raisers(source)
    assert set(raisers(source)).isdisjoint(TRAINER_CALLS)


# where training fails: an empty stack in the trainer, a non-finite row of an update matrix or
# of a group's anchors in the one row check, which names its client, and a non-finite fltrust
# server update, which names its round
TRAINING_FAILURES = {
    ("model.py", "sgd_train"),
    ("harness.py", "_finite_rows"),
    ("harness.py", "_baseline_round"),
}


def test_only_the_trainer_and_the_row_checks_raise_training_error():
    raises = {(path.name, where)
              for path in sorted(SRC.glob("*.py"))
              for where in raise_sites(path.read_text(), "TrainingError")}
    assert raises == TRAINING_FAILURES


# the one attack dispatch: only _Clients._train calls an attack, and the
# adaptive attack is the alternate one with a forged claim
ATTACK_CALLS = {
    "basic_attack": {("harness.py", "_Clients._train")},
    "alternate_attack": {("harness.py", "_Clients._train"), ("attacks.py", "adaptive_attack")},
    "adaptive_attack": {("harness.py", "_Clients._train")},
    "sybil_updates": {("harness.py", "_Clients._train")},
}


@pytest.mark.parametrize("name", sorted(ATTACK_CALLS))
def test_only_the_client_trainer_calls_an_attack(name):
    calls = {(path.name, where)
             for path in sorted(SRC.glob("*.py"))
             for where in callers(path.read_text(), name)}
    assert calls == ATTACK_CALLS[name]


# the modules that hold a model as ModelParams; aggregation takes and returns arrays
MODEL_HOLDERS = {"model.py", "attacks.py", "harness.py"}


def lines_naming(source: str, name: str) -> list:
    """Line of each import, definition, bare name or attribute that is `name`; not strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            named = name in (node.name, node.asname)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            named = node.name == name
        else:
            named = getattr(node, "id", None) == name or getattr(node, "attr", None) == name
        if named:
            found.append(node.lineno)
    return sorted(found)


def test_lines_naming_finds_every_name():
    source = (
        "from .model import ModelParams as MP\n"
        "from . import model\n"
        "class ModelParams:\n"
        "    pass\n"
        "def step(theta: model.ModelParams) -> np.ndarray:\n"
        "    \"\"\"Takes a ModelParams, returns an array.\"\"\"\n"
        "    return ModelParams(theta.flat, theta.shapes).flat\n"
        "ModelParamsLike = 'ModelParams'\n"
    )
    assert lines_naming(source, "ModelParams") == [1, 3, 5, 7]


def test_only_the_model_attacks_and_round_loop_name_model_params():
    holders = {path.name for path in sorted(SRC.glob("*.py"))
               if lines_naming(path.read_text(), "ModelParams")}
    assert holders == MODEL_HOLDERS


# the attacker data recipe has one owner: the round loop cuts each pool to poison_count
# records and hands every attack its poisoned sets, so the attacks only train
POISON_COUNT_READERS = {"config.py", "harness.py"}


def test_only_the_config_and_the_round_loop_read_poison_count():
    readers = {path.name for path in sorted(SRC.glob("*.py"))
               if lines_naming(path.read_text(), "poison_count")}
    assert readers == POISON_COUNT_READERS
    attacks = (SRC / "attacks.py").read_text()
    assert lines_naming(attacks, "pool") == lines_naming(attacks, "pools") == []


# the config fields whose values are declared choices
CHOICE_FIELDS = ("aggregator", "attack", "threshold_mode", "voting_metrics")


def choice_strings(source: str) -> list:
    """(field, string) of each string constant compared with a choice field by `==`, `!=`,
    `in` or `not in`, on either side, alone or inside a tuple, list or set."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)):
                continue
            for side, other in ((left, right), (right, left)):
                name = getattr(side, "id", None) or getattr(side, "attr", None)
                if name not in CHOICE_FIELDS:
                    continue
                items = other.elts if isinstance(other, (ast.Tuple, ast.List, ast.Set)) else [other]
                found += [(name, item.value) for item in items
                          if isinstance(item, ast.Constant) and isinstance(item.value, str)]
    return found


def test_choice_strings_finds_every_comparison():
    source = (
        "def run(cfg, attack, kind):\n"
        "    if cfg.aggregator == 'krum' or 'trim' != cfg.aggregator:\n"
        "        pass\n"
        "    if attack in ('basic', 'dba') and cfg.attack not in ['sybil']:\n"
        "        pass\n"
        "    x = 'gradient' in cfg.voting_metrics and kind == 'honest'\n"
        "    y = cfg.threshold_mode < 'mean' or cfg.aggregator == cfg.attack\n"
        "    return 0 < cfg.attack == 'none'\n"
    )
    assert sorted(choice_strings(source)) == [
        ("aggregator", "krum"), ("aggregator", "trim"), ("attack", "basic"), ("attack", "dba"),
        ("attack", "none"), ("attack", "sybil"), ("voting_metrics", "gradient")]


def test_every_compared_choice_string_is_a_declared_choice():
    types = get_type_hints(SimConfig)
    choices = {}
    for name in CHOICE_FIELDS:
        kind = types[name]
        choices[name] = get_args(get_args(kind)[0] if get_origin(kind) is tuple else kind)
    compared = [(path.name, name, text)
                for path in sorted(SRC.glob("*.py"))
                for name, text in choice_strings(path.read_text())]
    assert len(compared) >= 20  # the walk sees the round loop's and the config's branches
    assert [c for c in compared if c[2] not in choices[c[1]]] == []
