"""The benchmark's tracer: self-time arithmetic, patch restoration, coverage oracles, digests."""

import json
import math
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from fedsim import harness  # noqa: E402
from fedsim.config import SimConfig  # noqa: E402
from perfbench.run import E2E_UNITS  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    MODULES,
    PER_LAYER_UNITS,
    TARGETS,
    Patch,
    Tracer,
    coverage_problem,
    find_bindings,
    layer_metrics,
    resolve,
    self_times,
)
from perfbench.workloads import DEV_SEEDS, HELD_OUT_SEED, WORKLOADS, digests, load_pins  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _traced(call, *args):
    tracer = Tracer()
    patch, missing = tracer.install()
    try:
        result = call(*args)
    finally:
        patch.restore()
    assert missing == []
    return result, layer_metrics(tracer.spans, tracer.counters)


def test_self_times_on_a_synthetic_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(seconds):
        clock.now += seconds

    traced_leaf = tracer.wrap("model.leaf", leaf)

    def middle():
        clock.now += 1
        traced_leaf(2)
        clock.now += 3
        traced_leaf(4)

    traced_middle = tracer.wrap("trust.middle", middle)

    def root():
        clock.now += 10
        traced_middle()
        clock.now += 5

    tracer.wrap("harness.root", root)()

    assert [s[0] for s in tracer.spans] == ["harness.root", "trust.middle", "model.leaf", "model.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert self_times(tracer.spans) == [15, 4, 2, 4]
    m = layer_metrics(tracer.spans, tracer.counters)
    assert (m["harness.self_s"], m["trust.self_s"], m["model.self_s"]) == (15, 4, 6)
    assert m["trace.wall_s"] == 25 == sum(m[f"{mod}.self_s"] for mod in MODULES)


def test_overlapping_children_are_covered_once_and_clipped_to_the_parent():
    spans = [
        ["harness.a", 0.0, 10.0, -1, 0],
        ["model.b", 1.0, 4.0, 0, 0],
        ["model.c", 3.0, 6.0, 0, 0],
        ["model.d", 9.0, 12.0, 0, 0],
    ]
    assert self_times(spans) == [4.0, 3.0, 3.0, 3.0]


def test_a_span_closes_when_its_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.now += 2
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("data.fail", fail)()
    tracer.wrap("data.ok", lambda: None)()
    assert tracer.spans == [["data.fail", 0.0, 2.0, -1, 0], ["data.ok", 2.0, 2.0, -1, 0]]


def test_every_patched_binding_is_restored():
    originals = {(module, path): resolve(module, path) for module, path, _, _ in TARGETS}
    assert None not in originals.values()
    before = {target: (original, [(id(ns), key) for ns, key in find_bindings(original)])
              for target, original in originals.items()}

    local_train = before[("fedsim.model", "local_train")]
    modules = {sys.modules[m] for m in ("fedsim", "fedsim.model", "fedsim.harness", "fedsim.attacks")}
    assert {id(vars(m)) for m in modules} <= {ns for ns, _ in local_train[1]}

    patch, missing = Tracer().install()
    assert missing == []
    try:
        for original, _ in before.values():
            assert find_bindings(original) == [], f"{original.__qualname__} still bound after install"
    finally:
        patch.restore()
    for original, bindings in before.values():
        assert [(id(ns), key) for ns, key in find_bindings(original)] == bindings


def test_modules_imported_by_install_keep_no_wrapper(monkeypatch):
    monkeypatch.delitem(sys.modules, "fedsim.cli", raising=False)
    monkeypatch.delattr(sys.modules["fedsim"], "cli", raising=False)
    patch, _ = Tracer().install()
    patch.restore()
    assert sys.modules["fedsim.cli"].run_and_write is harness.run_and_write


def test_class_attributes_are_patched_and_restored(monkeypatch):
    def original():
        return "original"

    probe = types.ModuleType("fedsim._tracer_probe")

    class Holder:
        method = original

    Holder.__module__ = probe.__name__
    probe.original, probe.Holder = original, Holder
    monkeypatch.setitem(sys.modules, probe.__name__, probe)

    patch = Patch()
    assert patch.replace(original, lambda: "wrapped") == 2
    assert probe.original() == Holder.method() == "wrapped"
    patch.restore()
    assert probe.original is Holder.method is original


@pytest.mark.parametrize("wrap_entry_point", [True, False])
def test_spans_cover_the_traced_call_only_when_its_entry_point_is_wrapped(tmp_path, wrap_entry_point):
    targets = tuple(t for t in TARGETS if wrap_entry_point or t[1] != "run_and_write")
    tracer = Tracer()
    patch, missing = tracer.install(targets)
    try:
        start = time.perf_counter()
        harness.run_and_write(SimConfig(rounds=3), tmp_path)
        wall = time.perf_counter() - start
    finally:
        patch.restore()
    assert missing == []
    problem = coverage_problem(layer_metrics(tracer.spans, tracer.counters), wall)
    assert (problem is None) == wrap_entry_point, problem


def test_install_reports_targets_the_program_does_not_define():
    patch, missing = Tracer().install(TARGETS + (("fedsim.model", "renamed_step", "model.sgd_step", None),))
    patch.restore()
    assert missing == ["fedsim.model.renamed_step"]


def test_desk_defaults_trace_one_span_per_sgd_step():
    """fedavg/none at the desk defaults: 60 rounds x 10 clients x 5 epochs x ceil(200/64) steps."""
    cfg = SimConfig(aggregator="fedavg", attack="none")
    records_per_client = cfg.per_class * cfg.num_classes // cfg.n_clients
    selected = round(cfg.selection_ratio * cfg.n_clients)
    steps = cfg.rounds * selected * cfg.epochs * math.ceil(records_per_client / cfg.batch_size)
    _, m = _traced(harness.run_experiment, cfg)
    assert steps == 12_000 == m["model.sgd_step.calls"]
    assert m["model.local_train.calls"] == cfg.rounds * selected
    assert m["attacks.sgd_step.calls"] == 0
    assert m["baselines.calls"] == cfg.rounds


def test_trust_and_clustering_counts_match_the_round_records():
    cfg = SimConfig(n_clients=500, shards=500, num_malicious=50, attack="sybil", rounds=3)
    result, m = _traced(harness.run_experiment, cfg)
    records = result.records
    pairs = sum(s * (s - 1) // 2 for r in records for s in r.cluster_sizes)
    assert m["trust.cosine.calls"] == len(cfg.voting_metrics) * pairs
    claimed = sum(col.count("1") for r in records for col in r.inferred_columns)
    assert m["clustering.removed"] == claimed - sum(sum(r.cluster_sizes) for r in records)
    kept = sum(len(r.selected) - len(r.discarded) for r in records if not r.flagged)
    assert m["trust.kept_ratio"] == pytest.approx(kept / sum(len(r.selected) for r in records))


@pytest.mark.parametrize("overrides", [
    dict(attack="adaptive", rounds=6),
    dict(aggregator="fltrust", attack="dba", rounds=6),
])
def test_traced_and_untraced_runs_write_identical_csvs(tmp_path, overrides):
    cfg = SimConfig(**overrides)
    harness.run_and_write(cfg, tmp_path / "plain")
    _, m = _traced(harness.run_and_write, cfg, tmp_path / "traced")
    assert m["model.sgd_step.calls"] > 0
    plain, traced = digests(tmp_path / "plain"), digests(tmp_path / "traced")
    assert len(plain) == 1 and plain == traced


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_every_workload_has_every_seed_pinned():
    pins = load_pins()
    for name in WORKLOADS:
        assert set(pins[name]) == {str(s) for s in (*DEV_SEEDS, HELD_OUT_SEED)}
