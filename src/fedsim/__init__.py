"""Deterministic federated-learning simulator with a distribution-aware backdoor defense."""

from .config import SimConfig, apply_overrides, load_config
from .harness import ExperimentResult, RoundRecord, run_experiment
from .model import local_train

__version__ = "0.1.0"

# the config-and-run surface; local_train stays while perfbench's tracer
# tests expect to find it bound here
__all__ = [
    "ExperimentResult",
    "RoundRecord",
    "SimConfig",
    "apply_overrides",
    "load_config",
    "local_train",
    "run_experiment",
]
