"""Experiment configuration: dataclass, flat key=value files, CLI overrides."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Tuple

from .errors import ConfigError

AGGREGATORS = ("fedavg", "krum", "median", "trim", "fltrust", "clustervote")
ATTACKS = ("none", "basic", "alternate", "dba", "sybil", "adaptive")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean from {text!r}")


def _parse_int_tuple(text: str) -> Tuple[int, ...]:
    return tuple(int(v) for v in str(text).split(";") if v != "")


def _parse_float_tuple(text: str) -> Tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(";") if v != "")


def _parse_str_tuple(text: str) -> Tuple[str, ...]:
    return tuple(v.strip() for v in str(text).split(";") if v.strip())


@dataclass
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
    aggregator: str = "clustervote"
    agg_f: int = 2
    lr_server: float = 0.15
    strict_paper_sign: bool = False

    # defense
    threshold_mode: str = "mean"
    beta: float = 0.0
    indicator_obs_cap: int = 5
    voting_metrics: Tuple[str, ...] = ("gradient", "representation")
    gamma: float = 0.1

    # attack
    attack: str = "none"
    poison_count: int = 125
    pool_size: int = 500
    boost: float = 2.0
    stealth_rho: float = 0.1
    lambda_clean: float = 1.0
    dba_parts: int = 2
    trigger_indices: Tuple[int, ...] = (0, 1, 2, 3)
    trigger_values: Tuple[float, ...] = (3.0, -3.0, 3.0, -3.0)
    trigger_target: int = 0

    # evaluation and output
    base_count: int = 200
    out_dir: str = "runs"

    def __post_init__(self):
        """Reject every bad value or combination before a run generates any data."""
        if not (0.0 < self.selection_ratio <= 1.0):
            raise ConfigError("selection_ratio must lie in (0, 1]")
        per_round = round(self.selection_ratio * self.n_clients)
        if per_round < 2:
            raise ConfigError("selection must cover at least two clients per round")
        if not (0 <= self.num_malicious <= self.n_clients):
            raise ConfigError("num_malicious must lie in [0, n_clients]")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not (0.0 <= self.noniid_p <= 1.0):
            raise ConfigError("noniid_p must lie in [0, 1]")
        if self.lr_client <= 0 or self.lr_server <= 0:
            raise ConfigError("learning rates must be positive")
        if not (0.0 < self.gamma < 1.0):
            raise ConfigError("gamma must lie strictly between 0 and 1")
        for metric in self.voting_metrics:
            if metric not in ("gradient", "representation"):
                raise ConfigError(f"unknown voting metric {metric!r}")
        if not self.voting_metrics:
            raise ConfigError("need at least one voting metric")
        if self.aggregator not in AGGREGATORS:
            raise ConfigError(f"unknown aggregator {self.aggregator!r}")
        if self.attack not in ATTACKS:
            raise ConfigError(f"unknown attack {self.attack!r}")
        if self.agg_f < 0:
            raise ConfigError("agg_f must be >= 0")
        if self.aggregator == "krum" and per_round < 2 * self.agg_f + 3:
            raise ConfigError(f"krum needs at least 2*agg_f+3 = {2 * self.agg_f + 3} "
                              f"clients per round, got {per_round}")
        if self.aggregator == "trim" and per_round <= 2 * self.agg_f:
            raise ConfigError(f"trim needs more than 2*agg_f = {2 * self.agg_f} "
                              f"clients per round, got {per_round}")
        if self.aux_classes < 1 and (self.aggregator == "fltrust" or (
                self.aggregator == "clustervote" and "representation" in self.voting_metrics)):
            raise ConfigError("fltrust and representation voting need aux_classes >= 1")
        if self.indicator_obs_cap < 1:
            raise ConfigError("indicator_obs_cap must be >= 1")
        if not (0 <= self.poison_count <= self.pool_size):
            raise ConfigError("poison_count must lie in [0, pool_size]")
        if self.boost < 1:
            raise ConfigError("boost must be >= 1")
        if self.dba_parts < 1:
            raise ConfigError("dba_parts must be >= 1")
        if any(not 0 <= i < self.input_dim for i in self.trigger_indices):
            raise ConfigError("trigger_indices must lie in [0, input_dim)")

    @property
    def layer_dims(self) -> Tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.num_classes)

    @property
    def malicious_ids(self) -> Tuple[int, ...]:
        return tuple(range(self.num_malicious))

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


_TUPLE_PARSERS = {
    "hidden_dims": _parse_int_tuple,
    "trigger_indices": _parse_int_tuple,
    "trigger_values": _parse_float_tuple,
    "voting_metrics": _parse_str_tuple,
}


def _coerce(name: str, text: str, kind: type) -> object:
    try:
        if name in _TUPLE_PARSERS:
            return _TUPLE_PARSERS[name](text)
        if kind is bool:
            return _parse_bool(text)
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name}={text!r}: {exc}") from exc
    return text


def apply_overrides(cfg: SimConfig, overrides: dict[str, str]) -> SimConfig:
    """New config with the given key=value strings applied."""
    known = {f.name: f.type for f in fields(cfg)}
    values = dataclasses.asdict(cfg)
    for key, text in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        values[key] = _coerce(key, text, type(current))
    return SimConfig(**values)


def load_config(path: Path | str | None, overrides: dict[str, str] | None = None) -> SimConfig:
    """Config from a flat key=value file (optional) plus overrides."""
    parsed: dict[str, str] = {}
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            parsed[key.strip()] = value.strip()
    if overrides:
        parsed.update(overrides)
    return apply_overrides(SimConfig(), parsed)
