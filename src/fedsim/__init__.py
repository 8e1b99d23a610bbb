"""Deterministic federated-learning simulator with a distribution-aware backdoor defense."""

from .config import SimConfig, apply_overrides, load_config
from .data import LabeledDataset, TriggerPattern
from .harness import ExperimentResult, RoundRecord, evaluate, run_experiment, select_clients
from .model import ModelParams, init_model, local_train

__version__ = "0.1.0"

__all__ = [
    "ExperimentResult",
    "LabeledDataset",
    "ModelParams",
    "RoundRecord",
    "SimConfig",
    "TriggerPattern",
    "apply_overrides",
    "evaluate",
    "init_model",
    "load_config",
    "local_train",
    "run_experiment",
    "select_clients",
]
