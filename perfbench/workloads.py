"""The benchmark's workloads: what each one calls, on which inputs, and how its output is checked.

Every workload is a closed loop: one caller in one process calls a public
entry point, waits for it to return, checks what it wrote, and calls again.
The inputs are SimConfig seeds. Each run of the benchmark draws its sequence
of config seeds from `--seed`, always from DEV_SEEDS, whose rounds-CSV
digests are pinned in pins.json. HELD_OUT_SEED is pinned as well but never
drawn: it is kept for confirming a claimed gain on inputs the change was not
tuned on (`run.py --held-out`).

See README.md for why each workload exists and which modules it loads.
This module imports only the standard library; fedsim is imported inside
the functions, after the benchmark has fixed the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

DEV_SEEDS: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
HELD_OUT_SEED = 97

# the 500-client population: 100 selected per round, 20 records per client
CROWD = {"n_clients": "500", "shards": "500", "num_malicious": "50"}


@dataclass(frozen=True)
class Workload:
    """One entry point on one config family.

    `overrides` are SimConfig fields set on top of the defaults. With
    `sweep_values` the op is `fedsim sweep` over those aggregators;
    without, it is one `run_and_write`. `tail_pct` is the round-time
    percentile reported as the tail: fixed per workload, so that a faster
    program, which fits more rounds into a run, is compared on the same
    percentile. It leaves at least ten rounds above it in a run.
    """

    name: str
    overrides: Dict[str, str]
    tail_pct: float
    sweep_values: Tuple[str, ...] = field(default=())

    def config_overrides(self, seed: int) -> Dict[str, str]:
        """Overrides of one run (the sweep's first run for a sweep)."""
        extra = {"aggregator": self.sweep_values[0]} if self.sweep_values else {}
        return {**self.overrides, **extra, "seed": str(seed)}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("desk", {"aggregator": "clustervote", "attack": "alternate"}, tail_pct=95.0),
        Workload("crowd", {**CROWD, "aggregator": "clustervote", "attack": "sybil",
                           "rounds": "20"}, tail_pct=90.0),
        Workload("baseline_sweep", {**CROWD, "attack": "basic", "rounds": "5"}, tail_pct=95.0,
                 sweep_values=("fedavg", "krum", "median", "trim", "fltrust")),
    )
}


def seed_schedule(seed: int, held_out: bool = False) -> Iterator[int]:
    """Endless sequence of config seeds for one benchmark run, fixed by `seed`."""
    if held_out:
        while True:
            yield HELD_OUT_SEED
    order = list(DEV_SEEDS)
    random.Random(seed).shuffle(order)
    while True:
        yield from order


def prepare(w: Workload, seed: int, out: Path) -> Callable[[], None]:
    """Resolve the op's inputs and return the entry call, ready to time."""
    if not w.sweep_values:
        from fedsim.config import load_config
        from fedsim.harness import run_and_write

        cfg = load_config(None, w.config_overrides(seed))
        return lambda: run_and_write(cfg, out)

    from fedsim import cli

    argv = ["sweep", "--param", "aggregator", "--values", ",".join(w.sweep_values),
            "--seeds", str(seed), "--out", str(out)]
    for key, value in w.overrides.items():
        argv += ["--override", f"{key}={value}"]

    def sweep() -> None:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fedsim sweep exited with {code}")

    return sweep


def digests(out: Path) -> Dict[str, str]:
    """sha256 of every rounds CSV under `out`, keyed by its path relative to `out`."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("rounds_*.csv"))
    }


def load_pins() -> Dict[str, Dict[str, Dict[str, str]]]:
    return json.loads(PINS_PATH.read_text())


def check(w: Workload, seed: int, out: Path, pins) -> List[str]:
    """Why the op's output is wrong; an empty list means it is right."""
    expected = pins.get(w.name, {}).get(str(seed))
    if expected is None:
        return [f"no pinned digest for {w.name} seed {seed}"]
    problems = []
    got = digests(out)
    if got != expected:
        problems.append(f"rounds-CSV digests differ from the pins: {got}")
    for path in sorted(out.rglob("summary_*.json")):
        accuracy = json.loads(path.read_text()).get("final_accuracy")
        if not isinstance(accuracy, (int, float)) or not math.isfinite(accuracy):
            problems.append(f"{path.name}: final accuracy {accuracy!r}")
    return problems
