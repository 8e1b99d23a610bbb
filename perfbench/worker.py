"""Child process of the benchmark: set-up probes and the timed or traced loop.

run.py starts it as `python -m perfbench.worker '<json spec>'` from the
checkout root, with the BLAS thread count already fixed in the environment
and the checkout's `src` as the only PYTHONPATH entry. It prints one JSON
line. Nothing here is imported by the program under test.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

from perfbench.tracer import Patch, Tracer, coverage_problem, layer_metrics
from perfbench.workloads import WORKLOADS, Workload, check, load_pins, prepare, seed_schedule


class _SetupDone(Exception):
    """Raised from the first select_clients call of a set-up probe."""

    def __init__(self, at: float):
        super().__init__(at)
        self.at = at


def _require_checkout_source(root: str) -> None:
    import fedsim

    src = (Path(root) / "src").resolve()
    if Path(fedsim.__file__).resolve().parent.parent != src:
        raise SystemExit(f"fedsim was imported from {fedsim.__file__}, not from {src}")


class RoundClock:
    """Marks every select_clients call and the end of every run_experiment call.

    Consecutive marks of one run give its round times: from one selection
    to the next, and from the last selection to the end of the run.
    """

    def __init__(self) -> None:
        self.runs: List[List[float]] = []
        self.updates = 0

    def reset(self) -> None:
        self.runs = []
        self.updates = 0

    def install(self) -> Patch:
        from fedsim import harness

        select, run = harness.select_clients, harness.run_experiment

        def select_clients(*args, **kwargs):
            if not self.runs:
                self.runs.append([])
            self.runs[-1].append(time.perf_counter())
            chosen = select(*args, **kwargs)
            self.updates += len(chosen)
            return chosen

        def run_experiment(*args, **kwargs):
            self.runs.append([])
            result = run(*args, **kwargs)
            self.runs[-1].append(time.perf_counter())
            return result

        patch = Patch()
        patch.replace(select, select_clients)
        patch.replace(run, run_experiment)
        return patch

    def round_ms(self) -> List[float]:
        return [(b - a) * 1e3 for marks in self.runs for a, b in zip(marks, marks[1:])]


def _cpu_s() -> float:
    """User plus system CPU of this process and its waited-for children, in microseconds' resolution."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _op(w: Workload, seed: int, out: Path, clock: RoundClock, pins) -> Dict[str, object]:
    """One call of the workload's entry point, timed and checked."""
    error = None
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        run = prepare(w, seed, out)
        clock.reset()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        run()
    except Exception:  # a failed op is counted, and the loop goes on
        error = traceback.format_exc(limit=-3)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    problems = [error] if error else check(w, seed, out, pins)
    shutil.rmtree(out, ignore_errors=True)
    return {"seed": seed, "wall_s": wall, "cpu_s": cpu, "updates": clock.updates,
            "round_ms": clock.round_ms(), "problems": problems}


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        return int(get())
    return None


def machine() -> Dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_active": _blas_threads(),
    }


def setup_probe(spec) -> Dict[str, object]:
    """Seconds from `import fedsim` to the first select_clients call, in this fresh process."""
    t0 = time.perf_counter()
    import fedsim  # noqa: F401  (the measured set-up starts with this import)
    from fedsim import harness
    from fedsim.config import load_config

    select = harness.select_clients

    def first_selection(*args, **kwargs):
        raise _SetupDone(time.perf_counter())

    patch = Patch()
    patch.replace(select, first_selection)
    cfg = load_config(None, WORKLOADS[spec["workload"]].config_overrides(spec["config_seed"]))
    try:
        harness.run_and_write(cfg, Path(spec["workdir"]) / "setup")
    except _SetupDone as done:
        setup_s = done.at - t0
    else:
        raise SystemExit("the run ended without selecting clients")
    finally:
        patch.restore()
    _require_checkout_source(spec["root"])
    return {"setup_s": setup_s}


def _probe(spec, seed: int) -> float:
    """setup_s of one fresh process; it inherits this process's environment.

    The probe is a child of this process, so it counts in the children's
    peak RSS; it stops before the first round trains, below the loop's own
    peak.
    """
    probe = {**spec, "mode": "setup", "config_seed": seed}
    proc = subprocess.run([sys.executable, "-m", "perfbench.worker", json.dumps(probe)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def loop(spec) -> Dict[str, object]:
    """Closed loop over the workload for `seconds`, after one warm-up op.

    Without `trace`, every op is followed by a set-up probe on the same
    config seed, so that the probes sample the machine over the whole loop
    rather than at one moment. With `trace`, every untraced op is followed
    by the same op traced, so the pair gives the tracing overhead on
    identical inputs.
    """
    _require_checkout_source(spec["root"])
    w = WORKLOADS[spec["workload"]]
    seeds = seed_schedule(spec["seed"], spec["held_out"])
    work = Path(spec["workdir"])
    pins = load_pins()
    clock = RoundClock()
    clock.install()
    tracer = Tracer() if spec["trace"] else None

    warmup = _op(w, next(seeds), work / "warmup", clock, pins)
    ops, traced, setup_s = [], [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < spec["seconds"]:
        seed = next(seeds)
        ops.append(_op(w, seed, work / f"op{len(ops)}", clock, pins))
        if tracer is None:
            setup_s.append(_probe(spec, seed))
            continue
        tracer.reset()
        tracer.run_id = len(traced)
        patch, missing = tracer.install()
        try:
            op = _op(w, seed, work / f"traced{len(traced)}", clock, pins)
        finally:
            patch.restore()
        op["layers"] = layer_metrics(tracer.spans, tracer.counters)
        if missing:
            op["problems"].append(f"traced functions missing from the program: {missing}")
        uncovered = coverage_problem(op["layers"], op["wall_s"])
        if uncovered:
            op["problems"].append(uncovered)
        traced.append(op)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"machine": machine(), "warmup": warmup, "ops": ops, "traced": traced,
            "setup_s": setup_s, "peak_rss_mb": max(self_kb, child_kb) / 1024.0}


MODES = {"setup": setup_probe, "loop": loop}

if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    print(json.dumps(MODES[spec["mode"]](spec)))
