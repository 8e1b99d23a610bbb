"""Experiment configuration: dataclass, flat key=value files, CLI overrides."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Literal, Tuple, get_args, get_origin, get_type_hints

from .data import QUIET_DIMS
from .errors import ConfigError


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulated federation run.

    Defaults are the desk-scale setup: 50 clients holding 200 records each
    of a 10-class 32-feature synthetic task, 10 clients selected per round
    for 60 rounds, 5 of them attacker-controlled.
    """

    # population and schedule
    n_clients: int = 50
    num_malicious: int = 5
    selection_ratio: float = 0.2
    rounds: int = 60
    seed: int = 1

    # data
    num_classes: int = 10
    input_dim: int = 32
    per_class: int = 1000
    test_per_class: int = 200
    noniid_p: float = 0.4
    shards: int = 250
    tau: int = 20
    aux_classes: int = 3
    aux_per_class: int = 20

    # model and local training
    hidden_dims: Tuple[int, ...] = (64,)
    lr_client: float = 0.05
    epochs: int = 5
    batch_size: int = 64

    # aggregation
    aggregator: Literal["fedavg", "krum", "median", "trim", "fltrust", "clustervote"] = "clustervote"
    agg_f: int = 2
    lr_server: float = 0.15
    strict_paper_sign: bool = False

    # defense
    threshold_mode: Literal["mean", "mean_plus_std", "absolute"] = "mean"
    beta: float = 0.0
    indicator_obs_cap: int = 5
    voting_metrics: Tuple[Literal["gradient", "representation"], ...] = ("gradient", "representation")
    gamma: float = 0.1

    # attack
    attack: Literal["none", "basic", "alternate", "dba", "sybil", "adaptive"] = "none"
    poison_count: int = 125
    pool_size: int = 500
    boost: float = 2.0
    stealth_rho: float = 0.1
    dba_parts: int = 2
    trigger_indices: Tuple[int, ...] = (0, 1, 2, 3)
    trigger_values: Tuple[float, ...] = (3.0, -3.0, 3.0, -3.0)
    trigger_target: int = 0

    # evaluation
    base_count: int = 200

    def __post_init__(self):
        """Reject every bad value or combination before a run generates any data."""
        for f in fields(self):
            kind, value = _FIELD_TYPES[f.name], getattr(self, f.name)
            if not _holds(kind, value):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            items = value if get_origin(kind) is tuple else (value,)
            if items is value:  # a tuple field, given as a list too, so to_text can write it
                object.__setattr__(self, f.name, tuple(value))
            try:  # an int too large for a float overflows math.isfinite
                finite = all(math.isfinite(v) for v in items if isinstance(v, numbers.Real))
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(f"{f.name} must be finite")
        if not (0.0 < self.selection_ratio <= 1.0):
            raise ConfigError("selection_ratio must lie in (0, 1]")
        per_round = round(self.selection_ratio * self.n_clients)
        if per_round < 2:
            raise ConfigError("selection_ratio must select at least two clients per round")
        if not (0 <= self.num_malicious <= self.n_clients):
            raise ConfigError("num_malicious must lie in [0, n_clients]")
        for name in ("rounds", "epochs", "batch_size", "indicator_obs_cap", "boost", "dba_parts",
                     "per_class", "test_per_class", "aux_per_class", "pool_size", "shards"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("seed", "tau", "agg_f", "stealth_rho"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if any(width < 1 for width in self.hidden_dims):
            raise ConfigError("every hidden_dims width must be >= 1")
        if self.aggregator == "clustervote" and not self.hidden_dims:
            raise ConfigError("clustervote needs hidden_dims: label inference reads a ReLU "
                              "penultimate layer")
        if not (0.0 <= self.noniid_p <= 1.0):
            raise ConfigError("noniid_p must lie in [0, 1]")
        if self.shards % self.n_clients != 0:
            raise ConfigError(f"shards ({self.shards}) must be divisible by "
                              f"n_clients ({self.n_clients})")
        if self.num_classes > self.input_dim - QUIET_DIMS:
            raise ConfigError(f"num_classes ({self.num_classes}) must be at most "
                              f"input_dim - {QUIET_DIMS} = {self.input_dim - QUIET_DIMS}")
        for name in ("lr_client", "lr_server"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if not (0.0 < self.gamma < 1.0):
            raise ConfigError("gamma must lie strictly between 0 and 1")
        if not self.voting_metrics:
            raise ConfigError("voting_metrics must name at least one metric")
        if len(set(self.voting_metrics)) != len(self.voting_metrics):
            raise ConfigError("voting_metrics must be distinct")
        if self.aggregator == "krum" and per_round < 2 * self.agg_f + 3:
            raise ConfigError(f"krum needs at least 2*agg_f+3 = {2 * self.agg_f + 3} "
                              f"clients per round, got {per_round}")
        if self.aggregator == "trim" and per_round <= 2 * self.agg_f:
            raise ConfigError(f"trim needs more than 2*agg_f = {2 * self.agg_f} "
                              f"clients per round, got {per_round}")
        if self.aux_classes < 1 and (self.aggregator == "fltrust" or (
                self.aggregator == "clustervote" and "representation" in self.voting_metrics)):
            raise ConfigError("fltrust and representation voting need aux_classes >= 1")
        if not (0 <= self.poison_count <= self.pool_size):
            raise ConfigError("poison_count must lie in [0, pool_size]")
        if any(not 0 <= i < self.input_dim for i in self.trigger_indices):
            raise ConfigError("trigger_indices must lie in [0, input_dim)")
        if len(set(self.trigger_indices)) != len(self.trigger_indices):
            raise ConfigError("trigger_indices must be distinct")
        if len(self.trigger_values) != len(self.trigger_indices):
            raise ConfigError("trigger_values must have one value per trigger index")
        if self.attack == "dba" and self.dba_parts > len(self.trigger_indices):
            raise ConfigError(f"dba_parts ({self.dba_parts}) must be at most the "
                              f"{len(self.trigger_indices)} trigger_indices")
        if not 0 <= self.trigger_target < self.num_classes:
            raise ConfigError("trigger_target must lie in [0, num_classes)")
        if self.aux_classes > self.num_classes:
            raise ConfigError("aux_classes must be at most num_classes")
        test_size = self.num_classes * self.test_per_class
        if not 1 <= self.base_count <= test_size:
            raise ConfigError(f"base_count must lie in [1, num_classes * test_per_class] "
                              f"= [1, {test_size}]")

    @property
    def layer_dims(self) -> Tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.num_classes)

    @property
    def malicious_ids(self) -> Tuple[int, ...]:
        """The attacking clients: the first num_malicious ids, none under attack=none."""
        return tuple(range(self.num_malicious)) if self.attack != "none" else ()

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ";".join(str(v) for v in value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    def write(self, path: Path | str) -> None:
        Path(path).write_text(self.to_text())


# each field's declared type, which is how its text is read
_FIELD_TYPES = get_type_hints(SimConfig)
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _holds(kind: object, value: object) -> bool:
    """Whether `value` is of declared type `kind`: a bool is no number, an int is a float,
    numpy scalars count as Python ones, a choice is a str among its choices, and a tuple
    may be given as a list."""
    if get_origin(kind) is tuple:
        return isinstance(value, (list, tuple)) and all(_holds(get_args(kind)[0], v) for v in value)
    if get_origin(kind) is Literal:
        return isinstance(value, str) and value in get_args(kind)
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))


def _read(kind: object, text: str) -> object:
    """The text as a value of `kind`; a choice stays text, which SimConfig then checks."""
    if kind is bool:
        return _BOOLS[text.strip().lower()]
    return text if get_origin(kind) is Literal else kind(text)


def _parse(key: str, text: str) -> object:
    """Field `key` read from its text by its declared type; a tuple is ;-separated, an empty
    text is the empty tuple, and an empty item fails like any other bad item."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    try:
        if get_origin(kind) is tuple:
            items = text.split(";") if text.strip() else []
            return tuple(_read(get_args(kind)[0], v.strip()) for v in items)
        return _read(kind, text)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {key}={text!r}") from None


def split_setting(text: str, where: str) -> Tuple[str, str]:
    """One `key=value` setting as its stripped key and value; `where` names it in an error."""
    key, eq, value = text.partition("=")
    if not eq:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    return key.strip(), value.strip()


def apply_overrides(cfg: SimConfig, overrides: dict[str, str]) -> SimConfig:
    """New config with the given key=value strings applied."""
    return dataclasses.replace(cfg, **{key: _parse(key, text) for key, text in overrides.items()})


def load_config(path: Path | str | None, overrides: dict[str, str] | None = None) -> SimConfig:
    """Config from a flat key=value file (optional, `#` starts a comment, one line per key)
    plus overrides, which win over the file."""
    parsed: dict[str, str] = {}
    first: dict[str, int] = {}
    if path is not None:
        try:
            # a leading byte-order mark is cut after decoding, so byte offsets stay the file's
            text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            if line.strip():
                key, value = split_setting(line, f"{path}:{lineno}")
                if key in first:
                    raise ConfigError(f"{path}:{lineno}: {key} is already set on line {first[key]}")
                first[key], parsed[key] = lineno, value
    return apply_overrides(SimConfig(), {**parsed, **(overrides or {})})
