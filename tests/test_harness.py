"""Round loop, selection, evaluation, records, and CLI surface."""

import json
import warnings

import numpy as np
import pytest

from fedsim.cli import main
from fedsim.config import SimConfig
from fedsim.data import TriggerPattern, class_means, gen_dataset
from fedsim.errors import ConfigError, ShapeError, TrainingError
from fedsim.harness import (
    CSV_HEADER,
    RoundRecord,
    evaluate,
    run_and_write,
    run_experiment,
    select_clients,
    write_csv,
)
from fedsim.model import ModelParams, init_model, local_train, param_dim

TINY = dict(n_clients=10, num_malicious=2, selection_ratio=0.5, rounds=4,
            per_class=100, shards=50, pool_size=60, poison_count=20,
            test_per_class=50, base_count=50)


def tiny_cfg(**kw):
    args = dict(TINY)
    args.update(kw)
    return SimConfig(**args)


def test_select_full_ratio():
    assert select_clients(8, 1.0, round_index=0, seed=1) == list(range(8))


def test_select_deterministic_and_disjoint_rounds():
    a = select_clients(50, 0.2, round_index=3, seed=9)
    b = select_clients(50, 0.2, round_index=3, seed=9)
    c = select_clients(50, 0.2, round_index=4, seed=9)
    assert a == b and len(a) == 10
    assert a != c


def test_select_long_run_frequencies():
    counts = np.zeros(50, dtype=int)
    for t in range(1000):
        for cid in select_clients(50, 0.2, t, seed=5):
            counts[cid] += 1
    assert counts.sum() == 10_000
    assert np.all(np.abs(counts - 200) <= 40)


def test_evaluate_uniform_model_chance_accuracy():
    test = gen_dataset(10, 32, 50, seed=1)
    shapes = [(64, 32), (10, 64)]
    model = ModelParams(np.zeros(param_dim(shapes)), shapes)
    trig = TriggerPattern((0, 1), (3.0, -3.0), 0)
    acc, asr, defined = evaluate(model, test, trig, base_count=100)
    assert abs(acc - 0.1) < 0.05


def test_evaluate_target_hardwired_model_flagged():
    test = gen_dataset(4, 12, 25, seed=2)
    shapes = [(4, 12)]
    flat = np.zeros(param_dim(shapes))
    model = ModelParams(flat, shapes)
    model.layers()[0][1][2] = 1_000.0  # always predict class 2
    trig = TriggerPattern((0,), (3.0,), 2)
    acc, asr, defined = evaluate(model, test, trig, base_count=50)
    assert not defined and asr == 0.0


def test_evaluate_base_records_exclude_target():
    means = class_means(6, 16, seed=3)
    test = gen_dataset(6, 16, 30, seed=3, means=means)
    model = init_model([16, 12, 6], seed=1)
    model.flat += local_train(model, test, 5, 0.1, 32, 0)
    trig = TriggerPattern((0, 1), (3.0, -3.0), 2)
    acc, asr, defined = evaluate(model, test, trig, base_count=60)
    assert defined and 0.0 <= asr <= 1.0


def test_run_experiment_deterministic_csv():
    cfg = tiny_cfg(attack="basic")
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    rows_a = [r.to_csv_row() for r in a.records]
    rows_b = [r.to_csv_row() for r in b.records]
    assert rows_a == rows_b


def test_run_records_structure_defense():
    cfg = tiny_cfg()
    res = run_experiment(cfg)
    assert len(res.records) == cfg.rounds
    for r in res.records:
        assert len(r.selected) == 5
        assert set(r.discarded) <= set(r.selected)
        assert 0.0 <= r.accuracy <= 1.0 and 0.0 <= r.asr <= 1.0
        assert r.inference_accuracy is not None
        assert abs(sum(r.immediate) - 1.0) < 1e-9
        assert len(r.inferred_columns) == 5
        assert all(len(bits) == cfg.num_classes for bits in r.inferred_columns)


def test_run_records_structure_baseline():
    res = run_experiment(tiny_cfg(aggregator="median"))
    for r in res.records:
        assert r.inference_accuracy is None
        assert r.votes == [] and r.accumulated == []


def test_all_aggregators_and_attacks_execute():
    for agg in ("fedavg", "krum", "median", "trim", "fltrust", "clustervote"):
        res = run_experiment(tiny_cfg(rounds=2, aggregator=agg, agg_f=1))
        assert len(res.records) == 2
    for attack in ("basic", "alternate", "dba", "sybil", "adaptive"):
        res = run_experiment(tiny_cfg(rounds=2, attack=attack))
        assert len(res.records) == 2


def test_sybil_round_updates_identical(monkeypatch):
    # both malicious clients selected in some round must hand the aggregator
    # equal deltas; FedAvg receives them in selection order
    from fedsim import baselines
    received = []
    orig = baselines.fedavg
    def spy(deltas):
        received.append(deltas)
        return orig(deltas)
    monkeypatch.setattr(baselines, "fedavg", spy)
    res = run_experiment(tiny_cfg(rounds=4, attack="sybil", aggregator="fedavg"))
    assert len(received) == 4
    seen_pair = False
    for rec, deltas in zip(res.records, received):
        mal = [deltas[i] for i, cid in enumerate(rec.selected) if cid < 2]
        if len(mal) >= 2:
            seen_pair = True
            assert np.array_equal(mal[0], mal[1])
    assert seen_pair


def test_training_failure_names_the_failing_client(monkeypatch):
    # an honest client failing in a round that also trains an attacker with
    # a lower id is named itself, not the attacker
    from fedsim import harness
    cfg = tiny_cfg(attack="basic")
    for t in range(cfg.rounds):
        selected = select_clients(cfg.n_clients, cfg.selection_ratio, t, cfg.seed)
        if min(selected) < cfg.num_malicious < max(selected):
            break
    else:
        pytest.fail("no round selects both an attacker and an honest client")
    victim = max(selected)
    victim_seed = harness.derive_seed(cfg.seed, harness._CLIENT, t, victim)
    orig = harness.local_train
    def failing(params, data, epochs, lr, batch_size, seed):
        if seed == victim_seed:
            raise TrainingError("boom")
        return orig(params, data, epochs, lr, batch_size, seed)
    monkeypatch.setattr(harness, "local_train", failing)
    with pytest.raises(TrainingError, match=rf"^round {t}, client {victim}: boom$"):
        run_experiment(cfg)


def test_csv_write_and_header(tmp_path):
    res = run_experiment(tiny_cfg(rounds=2))
    path = tmp_path / "rounds.csv"
    write_csv(res.records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "round,selected,discarded,accuracy,asr,asr_defined,inference_accuracy,"
        "per_client_cap,cluster_size_cap,cluster_sizes,memberships,votes,"
        "immediate,accumulated,malicious_trust,honest_trust,inferred_columns,"
        "indicators,flagged"
    )
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_csv_row_cell_rules():
    # None is empty, a bool is 0/1, a list is ;-joined, anything else is str()
    rec = RoundRecord(3, [4, 7], accuracy=0.5, asr_defined=False, per_client_cap=2,
                      immediate=[0.25, 0.1], malicious_trust=None,
                      inferred_columns=["01", "10"], flagged=True)
    assert rec.to_csv_row() == "3,4;7,,0.5,0.0,0,,2,,,,,0.25;0.1,,,,01;10,,1"


def test_run_and_write_outputs(tmp_path):
    cfg = tiny_cfg(rounds=2)
    summary = run_and_write(cfg, tmp_path)
    tag = "clustervote_none_seed1"
    assert (tmp_path / f"rounds_{tag}.csv").exists()
    assert (tmp_path / f"config_{tag}.txt").exists()
    loaded = json.loads((tmp_path / f"summary_{tag}.json").read_text())
    assert loaded["final_accuracy"] == summary["final_accuracy"]
    assert set(summary) >= {"final_accuracy", "final_asr", "mean_malicious_trust"}


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "t.cfg"
    lines = [f"{k}={v}" for k, v in TINY.items()] + ["rounds=2"]
    cfg_path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--override", "seed=2"]) == 0
    assert (out_dir / "rounds_clustervote_none_seed2.csv").exists()
    assert main(["report", str(out_dir)]) == 0
    report = capsys.readouterr().out
    assert "clustervote_none_seed2" in report


def test_cli_repeats_mean_summary(tmp_path):
    cfg_path = tmp_path / "t.cfg"
    lines = [f"{k}={v}" for k, v in TINY.items()] + ["rounds=2"]
    cfg_path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--repeats", "2"]) == 0
    mean = json.loads((out_dir / "summary_mean.json").read_text())
    assert mean["seeds"] == [1, 2]


def test_cli_sweep(tmp_path):
    cfg_path = tmp_path / "t.cfg"
    lines = [f"{k}={v}" for k, v in TINY.items()] + ["rounds=2"]
    cfg_path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", str(cfg_path), "--param", "noniid_p",
                 "--values", "0.0,0.8", "--out", str(out_dir)]) == 0
    rows = json.loads((out_dir / "sweep_noniid_p.json").read_text())
    assert [row["noniid_p"] for row in rows] == ["0.0", "0.8"]


def test_cli_bad_override_exit_code(tmp_path):
    assert main(["run", "--override", "bogus_key=1", "--out", str(tmp_path)]) == 2


def test_cli_zero_batch_size_is_one_config_error(tmp_path, capsys):
    assert main(["run", "--override", "batch_size=0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ") and "batch_size" in err[0]


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--param", "seed", "--values", "3,4"], "--seeds"),
    (["run", "--repeats", "0"], "--repeats"),
    (["sweep", "--param", "noniid_p", "--values", "0.1", "--seeds", "1,x"], "--seeds"),
    (["sweep", "--param", "noniid_p", "--values", ","], "--values"),
    (["sweep", "--param", "noniid_p", "--values", "0.1,7"], "noniid_p"),
    (["run", "--override", "hidden_dims=3;x"], "hidden_dims"),
    (["run", "--override", "rounds"], "--override"),          # no '='
    (["run", "--override", "out_dir=runs#1"], "out_dir"),     # taken whole, no comment cut
])
def test_cli_bad_arguments_are_one_config_error(tmp_path, capsys, monkeypatch, argv, flag):
    # a seed sweep used to run the config's own seed under every label
    from fedsim import cli
    def no_run(*args, **kw):
        raise AssertionError("ran an experiment")
    monkeypatch.setattr(cli, "run_and_write", no_run)
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ") and flag in err[0]


def test_cli_repeats_check_every_config_before_the_first_run(tmp_path, monkeypatch):
    # like sweep, run --repeats builds (and so checks) every seed's config
    # before the first run starts
    from fedsim import cli
    built = []
    real_apply = cli.apply_overrides
    def recording_apply(cfg, overrides):
        built.append(overrides["seed"])
        return real_apply(cfg, overrides)
    def no_run(*args, **kw):
        assert built == ["1", "2", "3"]
        raise ShapeError("stop")
    monkeypatch.setattr(cli, "apply_overrides", recording_apply)
    monkeypatch.setattr(cli, "run_and_write", no_run)
    assert main(["run", "--repeats", "3", "--out", str(tmp_path)]) == 1


def test_cli_bad_config_fails_before_training(tmp_path, monkeypatch):
    from fedsim import harness
    def no_training(*args, **kw):
        raise AssertionError("trained a client")
    monkeypatch.setattr(harness, "local_train", no_training)
    argv = ["run", "--override", "aggregator=krum", "--override", "agg_f=5", "--out", str(tmp_path)]
    assert main(argv) == 2


def test_poison_count_beyond_attacker_data_fails_before_training(monkeypatch):
    from fedsim import harness
    def no_training(*args, **kw):
        raise AssertionError("trained a client")
    monkeypatch.setattr(harness, "local_train", no_training)
    # one attacker holds 100 records, fewer than the 150 it must poison with
    with pytest.raises(ConfigError, match="exceeds the attackers' pool of 100 records"):
        run_experiment(tiny_cfg(attack="basic", num_malicious=1, pool_size=500, poison_count=150))


def test_cli_run_failure_is_one_line(tmp_path, capsys, monkeypatch):
    overrides = [f"--override={k}={v}" for k, v in TINY.items()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", *overrides, "--override", "lr_client=1e200",
                     "--out", str(tmp_path)]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("run failed: round 0, client ")
    assert np.geterr()["over"] == "warn"  # the library keeps numpy's defaults

    from fedsim import cli
    def malformed(*args, **kw):
        raise ShapeError("bad shape")
    monkeypatch.setattr(cli, "run_and_write", malformed)
    assert main(["run", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "run failed: bad shape\n"


def test_dba_global_trigger_beats_parts():
    # assembling the full trigger at evaluation time succeeds more often
    # than any attacker's individual slice
    from fedsim.harness import _TEST, derive_seed
    cfg = SimConfig(aggregator="fedavg", attack="dba", seed=2)
    res = run_experiment(cfg)
    trig = TriggerPattern(cfg.trigger_indices, cfg.trigger_values, cfg.trigger_target)
    means = class_means(cfg.num_classes, cfg.input_dim, cfg.seed)
    test = gen_dataset(cfg.num_classes, cfg.input_dim, cfg.test_per_class,
                       derive_seed(cfg.seed, _TEST), means)
    global_asr = res.records[-1].asr
    for k in range(cfg.dba_parts):
        part_asr = evaluate(res.final_params, test,
                            trig.part(cfg.dba_parts, k), cfg.base_count)[1]
        assert global_asr > part_asr


def test_cli_determinism_byte_identical(tmp_path):
    cfg_path = tmp_path / "t.cfg"
    lines = [f"{k}={v}" for k, v in TINY.items()] + ["rounds=3", "attack=basic"]
    cfg_path.write_text("\n".join(lines) + "\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", str(cfg_path), "--out", str(out_b)]) == 0
    csv_a = (out_a / "rounds_clustervote_basic_seed1.csv").read_bytes()
    csv_b = (out_b / "rounds_clustervote_basic_seed1.csv").read_bytes()
    assert csv_a == csv_b
