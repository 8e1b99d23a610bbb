"""Command-line entry points: run, sweep, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .config import SimConfig, apply_overrides, load_config, split_setting
from .errors import ConfigError, ShapeError, TrainingError
from .harness import run_and_write, shared_worlds


def _overrides(args: argparse.Namespace) -> Dict[str, str]:
    """The --override settings, each value taken whole (no comment cutting)."""
    return dict(split_setting(pair, "--override") for pair in args.override or [])


def _runs(cfg: SimConfig, plan: List[Tuple[Path, Dict[str, str]]]) -> Iterator[Dict[str, object]]:
    """Summaries of `cfg` run with each (output directory, overrides), in order.

    Every run's config is built, and so checked, before the first run starts.
    """
    cfgs = [(out, apply_overrides(cfg, overrides)) for out, overrides in plan]
    return (run_and_write(run_cfg, out) for out, run_cfg in cfgs)


# the summary metrics that a mean over seeds averages and the report prints
SUMMARY_METRICS = ("final_accuracy", "final_asr", "mean_inference_accuracy",
                   "mean_malicious_trust", "mean_honest_trust", "malicious_updates")


def _mean_summary(per_seed: List[Dict[str, object]]) -> Dict[str, object]:
    out: Dict[str, object] = {
        "seeds": [s["seed"] for s in per_seed],
        "aggregator": per_seed[0]["aggregator"],
        "attack": per_seed[0]["attack"],
    }
    for key in SUMMARY_METRICS:
        values = [s[key] for s in per_seed if s.get(key) is not None]
        out[key] = float(np.mean(values)) if values else None
    return out


def cmd_run(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise ConfigError("--repeats must be >= 1")
    cfg = load_config(args.config, _overrides(args))
    out_dir = Path(args.out)
    summaries = []
    for summary in _runs(cfg, [(out_dir, {"seed": str(cfg.seed + rep)})
                               for rep in range(args.repeats)]):
        summaries.append(summary)
        print(f"seed {summary['seed']}: accuracy={summary['final_accuracy']:.4f} "
              f"asr={summary['final_asr']:.4f}")
    if args.repeats > 1:
        mean = _mean_summary(summaries)
        (out_dir / "summary_mean.json").write_text(json.dumps(mean, indent=2) + "\n")
        print(f"mean over {args.repeats} seeds: accuracy={mean['final_accuracy']:.4f} "
              f"asr={mean['final_asr']:.4f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.param == "seed":
        raise ConfigError("sweep seeds with --seeds, not --param seed")
    cfg = load_config(args.config, _overrides(args))
    key = args.param
    # stripped like an --override value, so "1, 2" names the values 1 and 2
    values = [v for v in (item.strip() for item in args.values.split(",")) if v]
    if not values:
        raise ConfigError(f"--values names no value: {args.values!r}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [cfg.seed]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    for flag, items in (("--values", values), ("--seeds", seeds)):
        if len(set(items)) < len(items):  # a repeat would run again into the same files
            raise ConfigError(f"{flag} repeats a value: {','.join(map(str, items))}")
    out_dir = Path(args.out)
    # seed-major, so the runs of one seed follow each other and share its data
    with shared_worlds():
        summaries = list(_runs(cfg, [(out_dir / f"{key}_{value}", {key: value, "seed": str(seed)})
                                     for seed in seeds for value in values]))
    rows = []
    for i, value in enumerate(values):
        mean = _mean_summary(summaries[i::len(values)])
        mean[key] = value
        rows.append(mean)
        print(f"{key}={value}: accuracy={mean['final_accuracy']:.4f} "
              f"asr={mean['final_asr']:.4f}")
    (out_dir / f"sweep_{key}.json").write_text(json.dumps(rows, indent=2) + "\n")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    summaries = sorted(root.rglob("summary_*.json"))
    if not summaries:
        print(f"no summaries under {root}", file=sys.stderr)
        return 1
    loaded = []
    for path in summaries:
        try:
            s = json.loads(path.read_text())
        except ValueError:  # not JSON, or not UTF-8 text
            s = None
        if not isinstance(s, dict):
            print(f"{path} is not a JSON object", file=sys.stderr)
            return 1
        loaded.append(s)

    def cell(value, width):
        if isinstance(value, float):
            return f"{value:{width}.5f}"
        return f"{value:{width}d}" if isinstance(value, int) else " " * width

    # a run is named by its summary's path under DIR, so two sweep values stay apart
    names = [p.relative_to(root).with_name(p.stem.removeprefix("summary_")).as_posix()
             for p in summaries]
    width = max(len("run"), *map(len, names))
    print(" ".join([f"{'run':{width}s}"] + [f"{key:>{len(key)}s}" for key in SUMMARY_METRICS]))
    for name, s in zip(names, loaded):
        print(" ".join([f"{name:{width}s}"] + [cell(s.get(key), len(key)) for key in SUMMARY_METRICS]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federated-learning simulator with a "
                    "distribution-aware backdoor defense.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment configuration")
    p_run.add_argument("config", nargs="?", default=None,
                       help="flat key=value config file (defaults apply if omitted)")
    p_run.add_argument("--override", action="append", metavar="KEY=VALUE")
    p_run.add_argument("--out", default="runs", help="output directory (default: runs)")
    p_run.add_argument("--repeats", type=int, default=1,
                       help="run this many consecutive seeds and report the mean")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid over one config key")
    p_sweep.add_argument("config", nargs="?", default=None)
    p_sweep.add_argument("--param", required=True, help="config key to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--seeds", default=None, help="comma-separated seeds")
    p_sweep.add_argument("--override", action="append", metavar="KEY=VALUE")
    p_sweep.add_argument("--out", default="runs", help="output directory (default: runs)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="summarize run outputs")
    p_report.add_argument("dir", help="directory containing summary_*.json files")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a diverging run is reported once, by the finiteness check on the
        # update it produced, not also by numpy's overflow warnings on the way
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ShapeError, TrainingError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
