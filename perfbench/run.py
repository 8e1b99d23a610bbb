"""fedsim benchmark: one workload, end-to-end metrics or a per-module trace.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

Run from anywhere; it works on the checkout that holds this file and
imports fedsim from that checkout's `src`. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it is a report with the machine, the config seeds run, the tail
percentile with its sample count, and every op. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-module ones (see README.md).

This process only starts and reads child processes: every measured call
runs in a fresh `python -m perfbench.worker` whose BLAS thread count is
fixed before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracer import PER_LAYER_UNITS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1       # the kernels are 64-row matmuls; a second thread only adds CPU
DEADLINE_S = 170.0     # a run must end within 180 s
WORK_ROOT = ROOT / ".perfbench-work"

E2E_UNITS = {
    "updates_per_s": "1/s",
    "setup_s": "s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; it prints no result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec: Dict[str, object], deadline: float) -> Dict[str, object]:
    """Run one worker to completion (killed at `deadline`) and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    # its own session, so that a kill at the deadline also ends the set-up
    # probes the worker starts
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {spec['mode']} ran past the deadline") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {spec['mode']} exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(args, spec, deadline) -> Dict[str, object]:
    w = WORKLOADS[args.workload]
    loop = run_worker({**spec, "mode": "loop", "trace": False}, deadline)
    ops = loop["ops"]
    rounds = [ms for op in ops for ms in op["round_ms"]]
    if not rounds:
        raise BenchError(f"no op finished a round: {ops[0]['problems']}")
    wall = sum(op["wall_s"] for op in ops)
    metrics = {
        "updates_per_s": sum(op["updates"] for op in ops) / wall,
        "setup_s": statistics.median(loop["setup_s"]),
        "round_ms_p50": percentile(rounds, 50.0),
        "round_ms_tail": percentile(rounds, w.tail_pct),
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    report = {
        "machine": loop["machine"],
        "config_seeds": [op["seed"] for op in ops],
        "tail": {"percentile": w.tail_pct, "samples": len(rounds),
                 "beyond": len(rounds) * (1 - w.tail_pct / 100.0)},
        "setup_probes_s": loop["setup_s"],
        "ops": [{k: op[k] for k in ("seed", "wall_s", "cpu_s", "updates")} for op in ops],
    }
    return _result(metrics, E2E_UNITS, [loop["warmup"], *ops], report)


def traced(args, spec, deadline) -> Dict[str, object]:
    loop = run_worker({**spec, "mode": "loop", "trace": True}, deadline)
    ops, traced_ops = loop["ops"], loop["traced"]
    metrics = {
        name: statistics.median(op["layers"][name] for op in traced_ops)
        for name in PER_LAYER_UNITS if name != "trace.overhead_frac"
    }
    metrics["trace.overhead_frac"] = (sum(op["wall_s"] for op in traced_ops)
                                      / sum(op["wall_s"] for op in ops) - 1.0)
    report = {
        "machine": loop["machine"],
        "config_seeds": [op["seed"] for op in ops],
        "pairs_s": [[u["wall_s"], t["wall_s"]] for u, t in zip(ops, traced_ops)],
    }
    return _result(metrics, PER_LAYER_UNITS, [loop["warmup"], *ops, *traced_ops], report)


def _result(metrics, units, ops, report) -> Dict[str, object]:
    """The result line; an op fails when it raised or its output missed the pins."""
    failed = [op for op in ops if op["problems"]]
    report["problems"] = [f"seed {op['seed']}: {p}" for op in failed for p in op["problems"]]
    return {
        "report": report,
        "result": {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1, help="picks the sequence of config seeds")
    parser.add_argument("--seconds", type=float, default=50.0, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="run only the held-out config seed, kept for confirming a claim")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "fedsim" / "__init__.py").is_file():
        print(f"no fedsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    spec = {"root": str(ROOT), "workdir": workdir, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "held_out": args.held_out}
    try:
        out = (traced if args.trace else end_to_end)(args, spec, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
