"""Span tracer that wraps fedsim's functions from outside the package.

No file of the program knows about tracing. The benchmark replaces each
traced function with a wrapper at every place that binds it -- module
globals (``from .model import local_train`` binds it again in the importer)
and class attributes -- and puts the originals back
afterwards. Spans stay in memory as ``[name, start, end, parent, run_id]``
lists and become per-layer metrics once the traced call has returned.

This module imports only the standard library, so importing it never pulls
numpy in before the benchmark has fixed the BLAS thread count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

PACKAGE = "fedsim"

Span = List  # [name, start, end, parent index or -1, run id]
# a hook gets the counters, the call's arguments by parameter name, and its result
Hook = Callable[[Dict[str, float], Dict[str, object], object], None]


def _removed(counters, arguments, result) -> None:
    """Memberships greedy_cluster(A, th) dropped: A.sum() - x.sum()."""
    counters["clustering.removed"] += int(arguments["A"].sum()) - int(result.sum())


def _aggregated(counters, arguments, result) -> None:
    """Updates handed to trust.aggregate(theta, updates, ...)."""
    counters["trust.aggregated"] += len(arguments["updates"])


def _judged(counters, arguments, result) -> None:
    """Updates trained in a defended round: median_discard(prev_immediate, selected)."""
    counters["trust.trained"] += len(arguments["selected"])


# (module, attribute path, span name, hook run on the return value)
TARGETS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("fedsim.data", "class_means", "data.class_means", None),
    ("fedsim.data", "gen_dataset", "data.gen_dataset", None),
    ("fedsim.data", "partition_noniid", "data.partition", None),
    ("fedsim.data", "ground_truth_abstract", "data.ground_truth", None),
    ("fedsim.data", "concat_datasets", "data.concat", None),
    ("fedsim.model", "init_model", "model.init", None),
    ("fedsim.model", "loss_and_grad", "model.sgd_step", None),
    ("fedsim.model", "local_train", "model.local_train", None),
    ("fedsim.model", "forward", "model.forward", None),
    ("fedsim.model", "representation", "model.representation", None),
    ("fedsim.attacks", "make_poison_pool", "attacks.poison_pool", None),
    ("fedsim.attacks", "basic_attack", "attacks.basic", None),
    ("fedsim.attacks", "alternate_attack", "attacks.alternate", None),
    ("fedsim.attacks", "adaptive_attack", "attacks.adaptive", None),
    ("fedsim.attacks", "sybil_updates", "attacks.sybil", None),
    ("fedsim.attacks", "forge_full_claim", "attacks.forge", None),
    ("fedsim.inference", "recover_last_layer_gradient", "inference.recover", None),
    ("fedsim.inference", "class_indicator", "inference.indicator", None),
    ("fedsim.inference", "infer_column", "inference.infer_column", None),
    ("fedsim.inference", "distribution_accuracy", "inference.accuracy", None),
    ("fedsim.clustering", "compute_thresholds", "clustering.thresholds", None),
    ("fedsim.clustering", "greedy_cluster", "clustering.greedy", _removed),
    ("fedsim.clustering", "membership_histograms", "clustering.histograms", None),
    ("fedsim.trust", "cluster_votes", "trust.cluster_votes", None),
    ("fedsim.trust", "similarity_matrix", "trust.similarity", None),
    ("fedsim.trust", "cosine_similarity", "trust.cosine", None),
    ("fedsim.trust", "TrustLedger.update", "trust.ledger", None),
    ("fedsim.trust", "median_discard", "trust.ledger", _judged),
    ("fedsim.trust", "aggregate", "trust.aggregate", _aggregated),
    ("fedsim.baselines", "fedavg", "baselines.fedavg", None),
    ("fedsim.baselines", "krum", "baselines.krum", None),
    ("fedsim.baselines", "coordinate_median", "baselines.median", None),
    ("fedsim.baselines", "trimmed_mean", "baselines.trim", None),
    ("fedsim.baselines", "fltrust", "baselines.fltrust", None),
    ("fedsim.harness", "run_and_write", "harness.run_and_write", None),
    ("fedsim.harness", "evaluate", "harness.evaluate", None),
    ("fedsim.harness", "write_csv", "harness.write", None),
    ("fedsim.cli", "main", "cli.main", None),
)

MODULES = ("data", "model", "attacks", "inference", "clustering", "trust",
           "baselines", "harness", "cli")

# Share of a traced call's wall time its spans may leave uncovered: the
# benchmark's own code around the root span costs well under a millisecond.
COVERAGE_TOL = 0.01

# Every per-layer metric a traced run reports, with its unit. The wall time
# of the traced call is the sum of the nine module self times.
PER_LAYER_UNITS: Dict[str, str] = {
    "data.calls": "count",
    "data.self_s": "s",
    "model.sgd_step.calls": "count",
    "model.sgd_step.self_s": "s",
    "model.sgd_step.us_p50": "us",
    "model.local_train.calls": "count",
    "model.local_train.self_s": "s",
    "model.forward.calls": "count",
    "model.forward.self_s": "s",
    "model.representation.self_s": "s",
    "model.self_s": "s",
    "attacks.calls": "count",
    "attacks.self_s": "s",
    "attacks.sgd_step.calls": "count",
    "inference.calls": "count",
    "inference.self_s": "s",
    "clustering.greedy.calls": "count",
    "clustering.greedy.self_s": "s",
    "clustering.removed": "count",
    "clustering.self_s": "s",
    "trust.cluster_votes.self_s": "s",
    "trust.similarity.self_s": "s",
    "trust.cosine.calls": "count",
    "trust.cosine.self_s": "s",
    "trust.ledger.self_s": "s",
    "trust.aggregate.self_s": "s",
    "trust.kept_ratio": "ratio",
    "trust.self_s": "s",
    "baselines.calls": "count",
    "baselines.fedavg.self_s": "s",
    "baselines.krum.self_s": "s",
    "baselines.median.self_s": "s",
    "baselines.trim.self_s": "s",
    "baselines.fltrust.self_s": "s",
    "baselines.self_s": "s",
    "harness.evaluate.self_s": "s",
    "harness.write.self_s": "s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


def _assign(namespace, key: str, value) -> None:
    if isinstance(namespace, dict):
        namespace[key] = value
    else:
        setattr(namespace, key, value)


def find_bindings(original) -> List[Tuple[object, str]]:
    """Every (namespace, key) in the loaded fedsim modules that binds `original`.

    A namespace is a module's globals or a class's attributes (methods).
    """
    found: List[Tuple[object, str]] = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        module_vars = vars(module)
        for key, value in list(module_vars.items()):
            if key.startswith("__"):
                continue
            if value is original:
                found.append((module_vars, key))
            elif isinstance(value, type) and value.__module__ == mod_name:
                found.extend((value, k) for k, v in list(vars(value).items()) if v is original)
    return found


class Patch:
    """Replacements made at function bindings; `restore` undoes them in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, original, replacement) -> int:
        """Bind `replacement` wherever `original` is bound; returns the binding count."""
        bindings = find_bindings(original)
        for namespace, key in bindings:
            self._saved.append((namespace, key, original))
            _assign(namespace, key, replacement)
        return len(bindings)

    def restore(self) -> None:
        while self._saved:
            namespace, key, original = self._saved.pop()
            _assign(namespace, key, original)


def resolve(module_name: str, path: str):
    """The object at `module.path`, or None when the program no longer has it."""
    try:
        obj = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Collects spans from wrapped calls; single-threaded, one caller at a time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(int)
        self.run_id = 0
        self._stack: List[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)
        self._stack.clear()

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        clock, stack = self.clock, self._stack
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> Tuple[Patch, List[str]]:
        """Wrap every target at all of its bindings.

        Returns the patch (call `restore`) and the targets the program does
        not define; the benchmark fails every traced op while that list is
        not empty, since a renamed function would otherwise read as 0.
        """
        # resolve (and so import) everything first: a module imported in the
        # middle of patching would bind wrappers that restore() never sees
        resolved = [(resolve(module, path), f"{module}.{path}", span, hook)
                    for module, path, span, hook in targets]
        patch = Patch()
        for original, _, span, hook in resolved:
            if original is not None:
                patch.replace(original, self.wrap(span, original, hook))
        return patch, [name for original, name, _, _ in resolved if original is None]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans: Sequence[Span], counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced call (every key of PER_LAYER_UNITS but the overhead)."""
    selfs = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    self_by_name: Dict[str, float] = defaultdict(float)
    module_calls: Dict[str, int] = defaultdict(int)
    module_self: Dict[str, float] = defaultdict(float)
    under_attack = [False] * len(spans)
    sgd_us: List[float] = []
    attack_steps = 0
    wall = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        module = _module_of(name)
        if parent < 0:
            wall += end - start
        else:
            under_attack[i] = _module_of(spans[parent][0]) == "attacks" or under_attack[parent]
        calls[name] += 1
        self_by_name[name] += selfs[i]
        module_calls[module] += 1
        module_self[module] += selfs[i]
        if name == "model.sgd_step":
            sgd_us.append((end - start) * 1e6)
            attack_steps += under_attack[i]

    trained = counters.get("trust.trained", 0)
    out: Dict[str, float] = {f"{m}.self_s": module_self[m] for m in MODULES}
    out.update({
        "data.calls": module_calls["data"],
        "model.sgd_step.calls": calls["model.sgd_step"],
        "model.sgd_step.self_s": self_by_name["model.sgd_step"],
        "model.sgd_step.us_p50": statistics.median(sgd_us) if sgd_us else 0.0,
        "model.local_train.calls": calls["model.local_train"],
        "model.local_train.self_s": self_by_name["model.local_train"],
        "model.forward.calls": calls["model.forward"],
        "model.forward.self_s": self_by_name["model.forward"],
        "model.representation.self_s": self_by_name["model.representation"],
        "attacks.calls": module_calls["attacks"],
        "attacks.sgd_step.calls": attack_steps,
        "inference.calls": module_calls["inference"],
        "clustering.greedy.calls": calls["clustering.greedy"],
        "clustering.greedy.self_s": self_by_name["clustering.greedy"],
        "clustering.removed": counters.get("clustering.removed", 0),
        "trust.cluster_votes.self_s": self_by_name["trust.cluster_votes"],
        "trust.similarity.self_s": self_by_name["trust.similarity"],
        "trust.cosine.calls": calls["trust.cosine"],
        "trust.cosine.self_s": self_by_name["trust.cosine"],
        "trust.ledger.self_s": self_by_name["trust.ledger"],
        "trust.aggregate.self_s": self_by_name["trust.aggregate"],
        "trust.kept_ratio": counters.get("trust.aggregated", 0) / trained if trained else 0.0,
        "baselines.calls": module_calls["baselines"],
        "harness.evaluate.self_s": self_by_name["harness.evaluate"],
        "harness.write.self_s": self_by_name["harness.write"],
        "trace.wall_s": wall,
    })
    for kind in ("fedavg", "krum", "median", "trim", "fltrust"):
        out[f"baselines.{kind}.self_s"] = self_by_name[f"baselines.{kind}"]
    return out


def coverage_problem(layers: Dict[str, float], wall_s: float) -> Optional[str]:
    """Why the spans of one traced call do not cover its wall time, or None.

    The module self times add up to the root spans' durations by
    construction; only the call's own wall time shows time that no span
    covers, as when the entry point is not wrapped.
    """
    covered = sum(layers[f"{m}.self_s"] for m in MODULES)
    if abs(covered - wall_s) > COVERAGE_TOL * wall_s:
        return f"module self times add up to {covered:.4f} s of the {wall_s:.4f} s traced call"
    return None
